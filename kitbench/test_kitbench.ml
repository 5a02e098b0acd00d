(* Fast checks of the benchmark's arithmetic and of BENCHMARK.json. No
   campaign runs here.

     test_kitbench.exe PATH/TO/BENCHMARK.json *)

module Jsonl = Kit_obs.Jsonl
module Tracer = Kit_obs.Tracer
module Spantree = Kit_obs.Spantree

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* -- arithmetic --------------------------------------------------------- *)

let test_fast_quartile () =
  (* Eight campaigns, two of them slowed down by the host. *)
  let walls = [ 1.0; 1.1; 0.9; 1.6; 1.05; 0.95; 1.7; 1.0 ] in
  check "fast time is the 25th percentile" (Stats.fast_time walls = 0.95);
  check "fast rate is the 75th percentile"
    (Stats.fast_rate (List.map (fun w -> 100.0 /. w) walls) = 100.0 /. 0.95);
  check "fast time of three is the minimum" (Stats.fast_time [ 2.0; 1.0; 3.0 ] = 1.0);
  check "fast rate of one is itself" (Stats.fast_rate [ 5.0 ] = 5.0)

let test_median () =
  check "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let test_percentile () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  check "p90 of 100 has 10 beyond" (Stats.percentile 0.9 (upto 100) = Some 90.0);
  check "p90 of 99 has only 9 beyond" (Stats.percentile 0.9 (upto 99) = None);
  check "p99 of 100 is withheld" (Stats.percentile 0.99 (upto 100) = None);
  check "p99 of 1000" (Stats.percentile 0.99 (upto 1000) = Some 990.0)

(* A root span [0, 10] holding a child [1, 3] (which holds [1.5, 2]) and
   a child [5, 6], traced inside a 12 s wall; one more span in a worker
   lane runs concurrently and belongs to no main-lane row. *)
let test_self_table () =
  let t = Tracer.create () in
  let open_ name w = Tracer.span t ~wall:w name in
  let close_ sp w = Tracer.finish t ~wall:w sp in
  let root = open_ "root" 0.0 in
  let a = open_ "a" 1.0 in
  let leaf = open_ "leaf" 1.5 in
  close_ leaf 2.0;
  close_ a 3.0;
  let worker = Tracer.span t ~attrs:[ ("worker", "1") ] ~wall:4.0 "job" in
  Tracer.finish t ~wall:9.0 worker;
  let b = open_ "b" 5.0 in
  close_ b 6.0;
  close_ root 10.0;
  let tree = Spantree.build (Tracer.events t) in
  let rows = Stats.self_table ~wall:12.0 (Stats.main_lane tree) in
  let self name =
    match List.find_opt (fun r -> r.Stats.row = name) rows with
    | Some r -> r.Stats.self_s
    | None -> nan
  in
  check "root self = duration - children" (close (self "root") 7.0);
  check "child self excludes grandchild" (close (self "a") 1.5);
  check "leaf self" (close (self "leaf") 0.5);
  check "b self" (close (self "b") 1.0);
  check "worker lane is not a main-lane row" (Float.is_nan (self "job"));
  check "unaccounted = wall - covered" (close (self Stats.unaccounted) 2.0);
  check "unaccounted is the last row"
    ((List.nth rows (List.length rows - 1)).Stats.row = Stats.unaccounted);
  check "rows sum to the wall"
    (close (Stats.sum (List.map (fun r -> r.Stats.self_s) rows)) 12.0)

(* -- BENCHMARK.json -------------------------------------------------------- *)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let str key v = Option.bind (Jsonl.member key v) Jsonl.to_str

let items key v = Option.value ~default:[] (Option.bind (Jsonl.member key v) Jsonl.to_list)

let declared_metric v =
  match (str "name" v, str "unit" v, str "better" v) with
  | Some name, Some unit_, Some better -> Some (name, unit_, better)
  | _ -> None

let catalog_metric (m : Catalog.metric) =
  Some (m.Catalog.name, m.Catalog.unit_, if m.Catalog.higher_is_better then "higher" else "lower")

let unique l = List.length (List.sort_uniq String.compare l) = List.length l

let test_benchmark_json path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Jsonl.parse text with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok json ->
    let workloads = List.filter_map (str "name") (items "workloads" json) in
    let e2e = items "end_to_end" json and layers = items "per_layer" json in
    let e2e_names = List.filter_map (str "name") e2e in
    let layer_names = List.filter_map (str "name") layers in
    let all = workloads @ e2e_names @ layer_names in
    check "names match [A-Za-z0-9_.-]+" (List.for_all valid_name all);
    check "names are used once" (unique all);
    check "at most 16 end-to-end metrics" (List.length e2e <= 16);
    check "at most 128 layer metrics" (List.length layers <= 128);
    check "workloads are the bench's" (workloads = Catalog.workloads);
    check "end-to-end metrics are the ones the bench emits"
      (List.map declared_metric e2e = List.map catalog_metric Catalog.end_to_end);
    check "layer metrics are the ones the bench emits"
      (List.map declared_metric layers = List.map catalog_metric Catalog.layer_metrics);
    check "bounds are within 0 and 0.25"
      (List.for_all
         (fun m ->
           match Option.bind (Jsonl.member "bound" m) Jsonl.to_float with
           | Some b -> b >= 0.0 && b <= 0.25
           | None -> false)
         e2e);
    check "setup_s is declared in seconds, lower is better"
      (List.mem (Some ("setup_s", "s", "lower")) (List.map declared_metric e2e));
    List.iter
      (fun (l : Catalog.layer_metric) ->
        let name = l.Catalog.metric.Catalog.name in
        check (name ^ " names its layer") (l.Catalog.layer <> "");
        check (name ^ " moves declared end-to-end metrics")
          (List.for_all (fun m -> List.mem m e2e_names) l.Catalog.moves);
        check (name ^ " names declared workloads")
          (List.for_all
             (fun w -> List.mem w workloads)
             (l.Catalog.works_on @ l.Catalog.bypass)))
      Catalog.per_layer

let () =
  test_fast_quartile ();
  test_median ();
  test_percentile ();
  test_self_table ();
  test_benchmark_json Sys.argv.(1);
  if !failures > 0 then begin
    Printf.printf "%d kitbench check(s) failed\n" !failures;
    exit 1
  end
