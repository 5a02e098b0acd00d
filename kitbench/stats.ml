(* The benchmark's arithmetic, kept apart from the workloads so the unit
   test can check it without running a campaign. *)

let sum = List.fold_left ( +. ) 0.0

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile [q] (0 < q < 1) and how many samples lie
   beyond it. *)
let nearest_rank q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  (a.(rank - 1), n - rank)

(* The host's speed drifts by up to 2x within seconds under other
   tenants' load, and contention only ever adds time. So a run reports
   its campaigns' fastest quartile: the 25th percentile of times, and
   the same rank counted from the top for rates. *)
let fast_time xs = fst (nearest_rank 0.25 xs)
let fast_rate xs = -.fast_time (List.map Float.neg xs)

(* A tail percentile is only reported when at least this many samples
   lie beyond it; below that it is one or two outliers, not a tail. *)
let min_beyond = 10

let percentile q xs =
  match nearest_rank q xs with
  | v, beyond when beyond >= min_beyond -> Some v
  | _ -> None

(* -- self-time table -------------------------------------------------- *)

type row = {
  row : string;
  count : int;
  self_s : float;
}

let unaccounted = "unaccounted"

(* The main lane of a span tree: spans recorded by the coordinating
   thread. Lanes split off by a lane attribute run concurrently with it
   (pool workers, open serve submissions), so their time is not part of
   the coordinator's wall. *)
let main_lane (tree : Kit_obs.Spantree.t) =
  { tree with
    Kit_obs.Spantree.lanes =
      List.filter
        (fun (k, _) -> String.equal k Kit_obs.Spantree.main_lane)
        tree.Kit_obs.Spantree.lanes }

(* One row per span name — its self time is its duration minus the part
   its child spans cover — and a last [unaccounted] row holding whatever
   part of [wall] no span covers, so the rows sum to [wall]. *)
let self_table ~wall tree =
  let profile = Kit_obs.Profile.of_tree tree in
  let rows =
    List.map
      (fun (r : Kit_obs.Profile.row) ->
        { row = r.Kit_obs.Profile.r_name; count = r.Kit_obs.Profile.r_count;
          self_s = r.Kit_obs.Profile.r_wall_self })
      profile.Kit_obs.Profile.rows
    |> List.sort (fun a b -> Float.compare b.self_s a.self_s)
  in
  let covered = sum (List.map (fun r -> r.self_s) rows) in
  rows @ [ { row = unaccounted; count = 0; self_s = wall -. covered } ]

(* -- JSON output ---------------------------------------------------------- *)

(* Every digit of the value (counts print as integers); JSON has no NaN
   or infinity, so a value that is not finite is a bug in the bench, not
   a measurement. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Stats.json_number: not finite"

let json_string s = Kit_obs.Jsonl.to_string (Kit_obs.Jsonl.Str s)
