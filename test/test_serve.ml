(* The process-pool layer: the generic Jobqueue, the validated KITCKPT1
   container, and the forked worker pool — including the acceptance
   invariant that a SIGKILLed worker never changes the merged campaign
   outcome (qcheck over procs × kill schedules), the twice-lethal
   quarantine, the heartbeat hang-catcher, and abort/resume of a pool
   campaign through its case-result log. *)

module Campaign = Kit_core.Campaign
module Jobqueue = Kit_core.Jobqueue
module Checkpoint = Kit_core.Checkpoint
module Testcase = Kit_gen.Testcase
module Filter = Kit_detect.Filter
module Supervisor = Kit_exec.Supervisor
module Pool = Kit_serve.Pool
module Wire = Kit_serve.Wire
module Proto = Kit_serve.Proto
module Tenant = Kit_serve.Tenant
module Sched = Kit_serve.Sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Jobqueue ----------------------------------------------------------- *)

let test_jobqueue_submit_order () =
  let q : (string, int) Jobqueue.t = Jobqueue.create () in
  let a = Jobqueue.submit q "a" in
  let b = Jobqueue.submit q "b" in
  let c = Jobqueue.submit q "c" in
  check_int "consecutive ids" 1 b;
  (* complete out of order; reads come back in submit order *)
  Jobqueue.complete q c 30;
  Jobqueue.complete q a 10;
  Jobqueue.complete q b 20;
  Alcotest.(check (list (pair int int)))
    "results in submit order"
    [ (a, 10); (b, 20); (c, 30) ]
    (Jobqueue.results q);
  check_bool "drained" true (Jobqueue.is_drained q)

let test_jobqueue_reshard () =
  let q : (int, unit) Jobqueue.t = Jobqueue.create () in
  List.iter (fun i -> ignore (Jobqueue.submit q i)) [ 0; 1; 2; 3; 4; 5 ];
  let shards = Jobqueue.assign_round_robin q ~workers:3 in
  Alcotest.(check (list int))
    "worker 1 shard" [ 1; 4 ]
    (List.map fst shards.(1));
  (* worker 1 claims one job, then dies: both its jobs come back *)
  check_bool "claims own shard head" true
    (Jobqueue.claim_next q ~worker:1 = Some (1, 1));
  let orphans = Jobqueue.release q ~worker:1 in
  Alcotest.(check (list int))
    "release returns running+assigned in submit order" [ 1; 4 ]
    (List.map fst orphans);
  check_int "resharded counted" 2 (Jobqueue.resharded q);
  Jobqueue.deal q orphans ~to_:[ 0; 2 ];
  (* each survivor keeps its own 2-job shard and inherits one orphan *)
  check_int "dealt to 0" 3 (Jobqueue.assigned_count q ~worker:0);
  check_int "dealt to 2" 3 (Jobqueue.assigned_count q ~worker:2);
  (* a fresh worker with an empty shard steals from the longest queue *)
  (match Jobqueue.steal q ~thief:9 with
   | Some _ -> ()
   | None -> Alcotest.fail "steal must find a victim");
  check_int "steal counted" 1 (Jobqueue.stolen q)

let test_jobqueue_quarantine () =
  let q : (string, int) Jobqueue.t = Jobqueue.create () in
  let a = Jobqueue.submit q "a" in
  let b = Jobqueue.submit q "b" in
  Jobqueue.quarantine q a;
  (* a late result for a retired job must not resurrect it *)
  Jobqueue.complete q a 1;
  check_bool "still quarantined" true (Jobqueue.result q a = None);
  Alcotest.(check (list int)) "quarantined ids" [ a ] (Jobqueue.quarantined_ids q);
  Alcotest.(check (list int))
    "unfinished excludes quarantined" [ b ]
    (List.map fst (Jobqueue.unfinished q));
  Jobqueue.complete q b 2;
  check_bool "drained with quarantine" true (Jobqueue.is_drained q)

(* The reference model: the queue as it was before it was indexed — one
   hashtable, and every ordered read sorts it by submit sequence. Slow,
   but obviously right; the indexed queue must agree with it on every
   return value and every read. *)
module Model = struct
  type ('a, 'b) status =
    | Queued
    | Assigned of int
    | Running of int
    | Completed of 'b
    | Quarantined

  type ('a, 'b) job = {
    j_id : int;
    j_seq : int;
    j_payload : 'a;
    mutable j_status : ('a, 'b) status;
  }

  type ('a, 'b) t = {
    jobs : (int, ('a, 'b) job) Hashtbl.t;
    mutable seq : int;
    mutable next_id : int;
    mutable resharded : int;
    mutable stolen : int;
  }

  let create () =
    { jobs = Hashtbl.create 64; seq = 0; next_id = 0; resharded = 0; stolen = 0 }

  let job t id =
    match Hashtbl.find_opt t.jobs id with
    | Some j -> j
    | None -> raise Not_found

  let submit_as t ~id payload =
    if Hashtbl.mem t.jobs id then invalid_arg "taken";
    Hashtbl.replace t.jobs id
      { j_id = id; j_seq = t.seq; j_payload = payload; j_status = Queued };
    t.seq <- t.seq + 1;
    if id >= t.next_id then t.next_id <- id + 1

  let submit t payload =
    let id = t.next_id in
    submit_as t ~id payload;
    id

  let ordered t =
    Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
    |> List.sort (fun a b -> compare a.j_seq b.j_seq)

  let assign_round_robin t ~workers =
    let workers = max 1 workers in
    let buckets = Array.make workers [] in
    let i = ref 0 in
    List.iter
      (fun j ->
        match j.j_status with
        | Queued ->
          let w = !i mod workers in
          j.j_status <- Assigned w;
          buckets.(w) <- (j.j_id, j.j_payload) :: buckets.(w);
          incr i
        | Assigned _ | Running _ | Completed _ | Quarantined -> ())
      (ordered t);
    Array.map List.rev buckets

  exception No_survivors

  let deal t jobs ~to_ =
    match to_ with
    | [] -> raise No_survivors
    | survivors ->
      let arr = Array.of_list survivors in
      List.iteri
        (fun k (id, _) ->
          (job t id).j_status <- Assigned arr.(k mod Array.length arr))
        jobs

  let claim_next t ~worker =
    let rec first = function
      | [] -> None
      | j :: rest -> (
        match j.j_status with
        | Assigned w when w = worker ->
          j.j_status <- Running worker;
          Some (j.j_id, j.j_payload)
        | _ -> first rest)
    in
    first (ordered t)

  let assigned_count t ~worker =
    Hashtbl.fold
      (fun _ j acc ->
        match j.j_status with Assigned w when w = worker -> acc + 1 | _ -> acc)
      t.jobs 0

  let steal t ~thief =
    let counts = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ j ->
        match j.j_status with
        | Assigned w when w <> thief ->
          Hashtbl.replace counts w
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
        | _ -> ())
      t.jobs;
    let victim =
      Hashtbl.fold
        (fun w n best ->
          match best with
          | Some (bw, bn) when bn > n || (bn = n && bw < w) -> best
          | Some _ | None -> Some (w, n))
        counts None
    in
    match victim with
    | None -> None
    | Some (w, _) ->
      let last =
        List.fold_left
          (fun acc j ->
            match j.j_status with Assigned w' when w' = w -> Some j | _ -> acc)
          None (ordered t)
      in
      Option.map
        (fun j ->
          j.j_status <- Running thief;
          t.stolen <- t.stolen + 1;
          (j.j_id, j.j_payload))
        last

  let release t ~worker =
    let orphans =
      List.filter
        (fun j ->
          match j.j_status with
          | Assigned w | Running w -> w = worker
          | Queued | Completed _ | Quarantined -> false)
        (ordered t)
    in
    List.iter (fun j -> j.j_status <- Queued) orphans;
    t.resharded <- t.resharded + List.length orphans;
    List.map (fun j -> (j.j_id, j.j_payload)) orphans

  let complete t id r =
    let j = job t id in
    match j.j_status with
    | Quarantined -> ()
    | Queued | Assigned _ | Running _ | Completed _ -> j.j_status <- Completed r

  let quarantine t id = (job t id).j_status <- Quarantined

  let results t =
    List.filter_map
      (fun j ->
        match j.j_status with Completed r -> Some (j.j_id, r) | _ -> None)
      (ordered t)

  let unfinished t =
    List.filter_map
      (fun j ->
        match j.j_status with
        | Queued | Assigned _ | Running _ -> Some (j.j_id, j.j_payload)
        | Completed _ | Quarantined -> None)
      (ordered t)

  let quarantined_ids t =
    List.filter_map
      (fun j -> match j.j_status with Quarantined -> Some j.j_id | _ -> None)
      (ordered t)

  let is_drained t =
    Hashtbl.fold
      (fun _ j acc ->
        acc
        && match j.j_status with
           | Completed _ | Quarantined -> true
           | Queued | Assigned _ | Running _ -> false)
      t.jobs true
end

(* One queue operation; ids range over a small space so submitting a
   taken id, completing and quarantining hit every state, and some ids
   are never submitted (the Not_found paths). *)
type jq_op =
  | Submit
  | Submit_as of int
  | Assign of int
  | Deal of int list * int list           (* ids, survivors *)
  | Claim of int
  | Steal of int
  | Release of int
  | Complete of int * int
  | Quarantine of int

let show_op = function
  | Submit -> "submit"
  | Submit_as id -> Printf.sprintf "submit_as %d" id
  | Assign w -> Printf.sprintf "assign %d" w
  | Deal (ids, to_) ->
    let l xs = String.concat ";" (List.map string_of_int xs) in
    Printf.sprintf "deal [%s] to [%s]" (l ids) (l to_)
  | Claim w -> Printf.sprintf "claim %d" w
  | Steal w -> Printf.sprintf "steal %d" w
  | Release w -> Printf.sprintf "release %d" w
  | Complete (id, r) -> Printf.sprintf "complete %d %d" id r
  | Quarantine id -> Printf.sprintf "quarantine %d" id

(* The worker ids a run uses: 0..workers-1, plus 9 — a thief (or a
   claimer) with no shard of its own. *)
let jq_workers workers = List.init workers Fun.id @ [ 9 ]

let gen_jq_case =
  let open QCheck.Gen in
  int_range 1 4 >>= fun workers ->
  let worker = oneofl (jq_workers workers) in
  let id = int_range 0 13 in
  let op =
    frequency
      [ (3, return Submit);
        (3, map (fun i -> Submit_as i) id);
        (2, map (fun w -> Assign w) (int_range 1 workers));
        (1, map2 (fun ids to_ -> Deal (ids, to_))
              (list_size (int_range 0 4) id)
              (list_size (int_range 0 3) (int_range 0 (workers - 1))));
        (4, map (fun w -> Claim w) worker);
        (3, map (fun w -> Steal w) worker);
        (1, map (fun w -> Release w) worker);
        (3, map2 (fun i r -> Complete (i, r)) id (int_range 0 99));
        (1, map (fun i -> Quarantine i) id) ]
  in
  pair (return workers) (list_size (int_range 0 60) op)

let arb_jq_case =
  QCheck.make
    ~print:(fun (workers, ops) ->
      Printf.sprintf "workers=%d: %s" workers
        (String.concat ", " (List.map show_op ops)))
    gen_jq_case

(* Run an operation, turning the exceptions both queues may raise into
   comparable values. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Not_found -> Error "Not_found"
  | exception Invalid_argument _ -> Error "Invalid_argument"
  | exception (Jobqueue.No_survivors | Model.No_survivors) ->
    Error "No_survivors"

let prop_jobqueue_matches_model =
  QCheck.Test.make ~name:"jobqueue: indexed queue = sort-based model"
    ~count:500 arb_jq_case
    (fun (workers, ops) ->
      let q : (int, int) Jobqueue.t = Jobqueue.create () in
      let m : (int, int) Model.t = Model.create () in
      let agree step what a b =
        if a <> b then
          QCheck.Test.fail_reportf "step %d (%s): %s differs" step
            (show_op (List.nth ops step)) what
      in
      List.iteri
        (fun step op ->
          let payload = step in
          let same what a b = agree step what (outcome a) (outcome b) in
          (match op with
          | Submit ->
            same "id" (fun () -> Jobqueue.submit q payload)
              (fun () -> Model.submit m payload)
          | Submit_as id ->
            same "unit" (fun () -> Jobqueue.submit_as q ~id payload)
              (fun () -> Model.submit_as m ~id payload)
          | Assign w ->
            same "shards" (fun () -> Jobqueue.assign_round_robin q ~workers:w)
              (fun () -> Model.assign_round_robin m ~workers:w)
          | Deal (ids, to_) ->
            let jobs = List.map (fun id -> (id, -1)) ids in
            same "unit" (fun () -> Jobqueue.deal q jobs ~to_)
              (fun () -> Model.deal m jobs ~to_)
          | Claim w ->
            same "claim" (fun () -> Jobqueue.claim_next q ~worker:w)
              (fun () -> Model.claim_next m ~worker:w)
          | Steal w ->
            same "steal" (fun () -> Jobqueue.steal q ~thief:w)
              (fun () -> Model.steal m ~thief:w)
          | Release w ->
            same "orphans" (fun () -> Jobqueue.release q ~worker:w)
              (fun () -> Model.release m ~worker:w)
          | Complete (id, r) ->
            same "unit" (fun () -> Jobqueue.complete q id r)
              (fun () -> Model.complete m id r)
          | Quarantine id ->
            same "unit" (fun () -> Jobqueue.quarantine q id)
              (fun () -> Model.quarantine m id));
          agree step "results" (Jobqueue.results q) (Model.results m);
          agree step "unfinished" (Jobqueue.unfinished q) (Model.unfinished m);
          agree step "quarantined_ids" (Jobqueue.quarantined_ids q)
            (Model.quarantined_ids m);
          agree step "unfinished_count" (Jobqueue.unfinished_count q)
            (List.length (Model.unfinished m));
          agree step "completed_count" (Jobqueue.completed_count q)
            (List.length (Model.results m));
          agree step "is_drained" (Jobqueue.is_drained q) (Model.is_drained m);
          List.iter
            (fun w ->
              agree step
                (Printf.sprintf "assigned_count %d" w)
                (Jobqueue.assigned_count q ~worker:w)
                (Model.assigned_count m ~worker:w))
            (jq_workers workers);
          agree step "resharded" (Jobqueue.resharded q) m.Model.resharded;
          agree step "stolen" (Jobqueue.stolen q) m.Model.stolen)
        ops;
      true)

let test_jobqueue_scales () =
  (* 100 000 jobs over 4 workers, drained by claims, steals and
     completions with one worker death in the middle. No time bound:
     the indexed queue takes milliseconds, and a queue that walked the
     table per claim would run into the suite's timeout instead. *)
  let n = 100_000 in
  let q : (int, int) Jobqueue.t = Jobqueue.create () in
  for i = 0 to n - 1 do ignore (Jobqueue.submit q i : int) done;
  ignore (Jobqueue.assign_round_robin q ~workers:4 : (int * int) list array);
  let seen = Array.make n 0 in
  let finish (id, payload) =
    check_int "payload rides with its id" id payload;
    seen.(id) <- seen.(id) + 1;
    Jobqueue.complete q id (2 * id)
  in
  let take w =
    match Jobqueue.claim_next q ~worker:w with
    | Some job -> Some job
    | None -> Jobqueue.steal q ~thief:w
  in
  let died = ref false in
  while not (Jobqueue.is_drained q) do
    (* worker 3 works twice as fast, so it runs dry first and steals *)
    List.iter (fun w -> Option.iter finish (take w)) [ 0; 1; 2; 3; 3 ];
    if (not !died) && Jobqueue.completed_count q >= n / 2 then begin
      died := true;
      (* worker 1 dies holding a claimed job *)
      let in_flight = Jobqueue.claim_next q ~worker:1 in
      check_bool "dying worker held a job" true (in_flight <> None);
      let orphans = Jobqueue.release q ~worker:1 in
      check_bool "in-flight job released" true
        (List.mem (Option.get in_flight) orphans);
      Jobqueue.deal q orphans ~to_:[ 0; 2; 3 ];
      check_int "dead worker's shard emptied" 0
        (Jobqueue.assigned_count q ~worker:1)
    end
  done;
  check_bool "a worker died mid-drain" true !died;
  check_bool "idle workers stole" true (Jobqueue.stolen q > 0);
  check_bool "every job completed exactly once" true
    (Array.for_all (fun c -> c = 1) seen);
  check_int "completed count" n (Jobqueue.completed_count q);
  let results = Jobqueue.results q in
  check_int "one result per job" n (List.length results);
  check_bool "results in submit order" true
    (List.for_all2 (fun i (id, r) -> id = i && r = 2 * i)
       (List.init n Fun.id) results)

(* --- Checkpoint --------------------------------------------------------- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_ok path ~kind =
  match Checkpoint.read path ~kind with
  | Ok log -> log
  | Error e -> Alcotest.failf "read: %s" (Checkpoint.error_to_string e)

let test_checkpoint_roundtrip () =
  let path = tmp "kit_test_ckpt_rt" in
  let records = [ "42"; "payload"; ""; String.make 300 '\xff' ] in
  Checkpoint.write path ~kind:"unit-test" records;
  let log = read_ok path ~kind:"unit-test" in
  check_bool "records round-trip" true (log.Checkpoint.records = records);
  check_int "no torn tail" 0 log.Checkpoint.torn;
  Sys.remove path

let expect_error what want path ~kind =
  match Checkpoint.read path ~kind with
  | Error e when want e -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Checkpoint.error_to_string e)
  | Ok _ -> Alcotest.failf "%s cannot load" what

let test_checkpoint_typed_errors () =
  let path = tmp "kit_test_ckpt_err" in
  let corrupt = function Checkpoint.Checkpoint_corrupt _ -> true | _ -> false in
  expect_error "missing file"
    (function Checkpoint.Io _ -> true | _ -> false)
    (tmp "kit_no_such_ckpt") ~kind:"k";
  let oc = open_out_bin path in
  output_string oc "definitely not a checkpoint";
  close_out oc;
  expect_error "garbage"
    (function Checkpoint.Not_checkpoint _ -> true | _ -> false)
    path ~kind:"k";
  Checkpoint.write path ~kind:"kind-a" [ "1" ];
  expect_error "kind mismatch" corrupt path ~kind:"kind-b";
  Checkpoint.write path ~kind:"k" [ String.make 64 'x'; "second" ];
  let full = In_channel.with_open_bin path In_channel.input_all in
  let store s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
  (* a cut inside the header *)
  store (String.sub full 0 (String.length Checkpoint.magic + 1));
  expect_error "truncated header" corrupt path ~kind:"k";
  (* a bit flip in the first record, with a valid record after it: the
     digest catches it, and no crash can explain it *)
  let flipped = Bytes.of_string full in
  let at = String.length Checkpoint.magic + 2 + 24 + 10 in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 1));
  store (Bytes.to_string flipped);
  expect_error "corrupt payload" corrupt path ~kind:"k";
  (* a cut inside the last record is a torn tail: dropped and counted *)
  store (String.sub full 0 (String.length full - 3));
  let log = read_ok path ~kind:"k" in
  check_bool "complete records kept" true
    (log.Checkpoint.records = [ String.make 64 'x' ]);
  check_int "torn bytes" (24 + String.length "second" - 3) log.Checkpoint.torn;
  Sys.remove path

let test_checkpoint_crash_before_rename () =
  (* A writer killed between write and rename leaves a truncated
     [path.tmp] beside the previous good [path]: the old log must still
     read, and the next write must still replace it. *)
  let path = tmp "kit_test_ckpt_crash" in
  Checkpoint.write path ~kind:"k" [ "1" ];
  Checkpoint.write (path ^ ".next") ~kind:"k" [ "2" ];
  let next = In_channel.with_open_bin (path ^ ".next") In_channel.input_all in
  Sys.remove (path ^ ".next");
  Out_channel.with_open_bin (path ^ ".tmp") (fun oc ->
      Out_channel.output_string oc
        (String.sub next 0 (String.length next / 2)));
  check_bool "previous checkpoint survives" true
    ((read_ok path ~kind:"k").Checkpoint.records = [ "1" ]);
  Checkpoint.write path ~kind:"k" [ "3" ];
  check_bool "next write lands" true
    ((read_ok path ~kind:"k").Checkpoint.records = [ "3" ]);
  check_bool "temp file consumed" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* --- the pool ----------------------------------------------------------- *)

let small_options =
  { Campaign.default_options with
    Campaign.corpus_size = 24;
    seed = 11;
    diagnose = false }

let baseline = lazy (Campaign.run small_options)

(* Fast sabotage recovery for tests: tiny backoff, generous respawns. *)
let test_config =
  { Pool.default_config with
    Pool.procs = 2;
    heartbeat_s = 30.0;
    max_respawns = 8;
    backoff_base_ms = 1.0 }

let fp_one x = Digest.string (Marshal.to_string x [ Marshal.No_sharing ])
let multiset l = List.sort compare (List.map fp_one l)

let funnel_fp (f : Filter.funnel) =
  ( f.Filter.executed, f.Filter.initial, f.Filter.after_nondet,
    f.Filter.after_resource )

type outcome = {
  results : Campaign.case_result list;   (* in case order *)
  stats : Pool.stats;
}

let pool_fps (o : outcome) =
  let reports = List.filter_map (fun r -> r.Campaign.cr_report) o.results in
  let quarantined =
    List.concat_map (fun r -> r.Campaign.cr_crashes) o.results
  in
  let funnel =
    List.fold_left
      (fun (e, i, n, r) (cr : Campaign.case_result) ->
        let f = cr.Campaign.cr_funnel in
        ( e + f.Filter.executed, i + f.Filter.initial,
          n + f.Filter.after_nondet, r + f.Filter.after_resource ))
      (0, 0, 0, 0) o.results
  in
  (multiset reports, funnel, multiset quarantined)

let campaign_fps (c : Campaign.t) =
  (multiset c.Campaign.reports, funnel_fp c.Campaign.funnel,
   multiset c.Campaign.quarantined)

(* The sequential reference: the in-process [Campaign.run] baseline. *)
let reference = lazy (campaign_fps (Lazy.force baseline))

(* Every representative of the baseline on a fresh pool, which must
   report each case exactly once. *)
let run_pool ?(cfg = test_config) () =
  let b = Lazy.force baseline in
  let reps = b.Campaign.generation.Kit_gen.Cluster.reps in
  let results = Array.make (List.length reps) None in
  let stats =
    Pool.execute cfg small_options b.Campaign.corpus
      (List.mapi (fun i tc -> (i, tc)) reps)
      ~on_done:(fun case r _ ->
        if results.(case) <> None then
          Alcotest.failf "case %d reported twice" case;
        results.(case) <- Some r)
  in
  { results = Array.to_list (Array.map Option.get results); stats }

let test_pool_matches_sequential () =
  let o = run_pool ~cfg:{ test_config with Pool.procs = 3 } () in
  check_bool "pool(3) = sequential campaign" true
    (pool_fps o = Lazy.force reference);
  check_int "no deaths in a clean run" 0 o.stats.Pool.deaths

let test_pool_survives_sigkill () =
  (* Worker 0 SIGKILLs itself on its first job — death mid-case from
     the parent's view. The first dispatch always reaches slot 0 (idle
     slots are served in slot order, and each claims its own shard
     before stealing), so the death never hangs on whether slot 1 steals
     slot 0's queue first. The run must finish with the shard resharded
     and the merged fingerprint unchanged. *)
  let cfg =
    { test_config with
      Pool.sabotage = { Pool.no_sabotage with Pool.kill_after = [ (0, 0) ] } }
  in
  let o = run_pool ~cfg () in
  check_bool "fingerprint equals crash-free run" true
    (pool_fps o = Lazy.force reference);
  check_bool "worker death observed" true (o.stats.Pool.deaths >= 1);
  check_bool "shard resharded" true (o.stats.Pool.resharded > 0);
  check_bool "worker respawned" true (o.stats.Pool.respawns >= 1)

let prop_pool_equals_sequential =
  (* The acceptance invariant: for any procs count and any single-kill
     schedule (slot × cases-completed-before-death, SIGKILL mid-case),
     the merged funnel/reports/quarantine fingerprint equals the
     sequential campaign. Multi-kill schedules are covered by the
     directed twice-lethal test — two kills in a row on one case
     *should* quarantine it, by design. *)
  QCheck.Test.make ~name:"pool procs=N × kill schedule = sequential campaign"
    ~count:5
    QCheck.(pair (int_range 1 4) (pair (int_range 0 3) (int_range 1 3)))
    (fun (procs, (slot, after)) ->
      let cfg =
        { test_config with
          Pool.procs;
          sabotage =
            { Pool.no_sabotage with
              Pool.kill_after = [ (slot mod procs, after) ] } }
      in
      pool_fps (run_pool ~cfg ()) = Lazy.force reference)

let test_pool_poison_two_strikes () =
  (* Case 0 kills every worker that touches it. Two strikes must land it
     in quarantine as a first-class Worker_lost crash report — not loop
     respawns forever — and every other case must match the clean run. *)
  let cfg =
    { test_config with
      Pool.sabotage = { Pool.no_sabotage with Pool.poison = [ 0 ] } }
  in
  let o = run_pool ~cfg () in
  let clean = run_pool () in
  check_int "one poisoned case" 1 o.stats.Pool.poisoned;
  (match (o.results, clean.results) with
   | poisoned :: rest, _ :: clean_rest ->
     (match poisoned.Campaign.cr_crashes with
      | [ { Supervisor.c_reason = Supervisor.Worker_lost _; c_attempts; _ } ] ->
        check_int "two strikes recorded" 2 c_attempts
      | _ -> Alcotest.fail "poisoned case must carry one Worker_lost crash");
     check_bool "every other case unchanged" true
       (List.map fp_one rest = List.map fp_one clean_rest)
   | _ -> Alcotest.fail "pool produced no results")

let test_pool_heartbeat_timeout () =
  (* Worker 0 hangs forever on its first job; only the wall-clock
     heartbeat can catch it. With no respawn budget the slot retires and
     the survivor absorbs the queue. *)
  let cfg =
    { test_config with
      Pool.heartbeat_s = 0.5;
      max_respawns = 0;
      sabotage = { Pool.no_sabotage with Pool.hang_after = [ (0, 0) ] } }
  in
  let o = run_pool ~cfg () in
  check_bool "hang caught by heartbeat" true
    (o.stats.Pool.heartbeat_timeouts >= 1);
  check_int "no respawn budget" 0 o.stats.Pool.respawns;
  check_bool "fingerprint equals crash-free run" true
    (pool_fps o = Lazy.force reference)

let test_pool_reads_before_judging () =
  (* The coordinator is away past the heartbeat while the job completes:
     poll reads the result already in the pipe instead of killing the
     worker as hung. *)
  let b = Lazy.force baseline in
  let pool =
    Pool.create { test_config with Pool.procs = 1; heartbeat_s = 0.5 }
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let j =
        Pool.jobs pool ~tenant:0 ~label:"" small_options b.Campaign.corpus
          [ (0, List.hd b.Campaign.generation.Kit_gen.Cluster.reps) ]
          ~on_done:(fun _ _ _ -> ())
      in
      check_bool "dispatched" true (Pool.dispatch pool j ~slot:0);
      Unix.sleepf 1.5;
      let events, _ = Pool.poll pool ~timeout:0.2 in
      let c = Pool.core_stats pool in
      check_int "no deaths" 0 c.Pool.c_deaths;
      check_int "no heartbeat timeouts" 0 c.Pool.c_heartbeat_timeouts;
      check_bool "one completion" true
        (match events with [ Pool.Job_done _ ] -> true | _ -> false))

(* A pool campaign of [small_options] through the driver, logging to
   [path] every completion: the replayed count and the campaign. *)
let pool_campaign ?(cfg = test_config) ?kill path =
  match
    Resume.run_process ~executor:(Pool.executor cfg) ?kill ~every:1 path
      small_options
  with
  | replayed, Some c -> (replayed, c)
  | _, None -> Alcotest.fail "killed"

let test_pool_abort_and_resume () =
  (* A single worker with no respawn budget dies mid-run: the pool must
     abort with the typed exception, the driver saving every completed
     case first — and a fresh pool must resume without re-executing
     them. *)
  Resume.with_path "kit_test_pool" (fun path ->
      let crash_cfg =
        { test_config with
          Pool.procs = 1;
          max_respawns = 0;
          sabotage = { Pool.no_sabotage with Pool.kill_after = [ (0, 2) ] } }
      in
      (match pool_campaign ~cfg:crash_cfg path with
      | _ -> Alcotest.fail "a dead pool must abort"
      | exception Pool.Aborted { unfinished; stats } ->
        check_bool "unfinished queue reported" true (unfinished <> []);
        check_int "one death" 1 stats.Pool.deaths);
      let replayed, c = pool_campaign path in
      check_bool "completed cases restored" true (replayed >= 2);
      check_bool "resumed fingerprint equals crash-free run" true
        (campaign_fps c = Lazy.force reference))

(* --- the jobqueue/wire typed errors (serve satellites) ------------------ *)

let test_jobqueue_deal_no_survivors () =
  let q : (string, int) Jobqueue.t = Jobqueue.create () in
  ignore (Jobqueue.submit q "a");
  ignore (Jobqueue.assign_round_robin q ~workers:1);
  let orphans = Jobqueue.release q ~worker:0 in
  check_bool "orphans returned" true (orphans <> []);
  match Jobqueue.deal q orphans ~to_:[] with
  | () -> Alcotest.fail "deal with no survivors must raise"
  | exception Jobqueue.No_survivors -> ()

let test_wire_oversized () =
  let rx, tx = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close rx; Unix.close tx)
    (fun () ->
      (* a well-formed header announcing a frame beyond the limit: the
         typed condition a server can answer with a clean reply *)
      let header = Bytes.create 8 in
      Bytes.set_int64_be header 0 (Int64.of_int (Wire.max_frame + 1));
      ignore (Unix.write tx header 0 8);
      (match (Wire.recv rx : int option) with
      | Some _ | None -> Alcotest.fail "oversized announcement must raise"
      | exception Wire.Oversized { announced; limit } ->
        check_int "announced length" (Wire.max_frame + 1) announced;
        check_int "limit" Wire.max_frame limit);
      (* a negative length is stream garbage, not a protocol frame *)
      Bytes.set_int64_be header 0 (-1L);
      ignore (Unix.write tx header 0 8);
      check_bool "negative length is None" true
        ((Wire.recv rx : int option) = None))

(* --- the socket protocol's codecs ---------------------------------------- *)

let gen_name =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '-'; '_'; 'q' ]) (int_range 1 12))

let gen_spec =
  QCheck.Gen.(
    map
      (fun ((sp_name, sp_seed, sp_corpus_size), (strategy, k),
            (sp_weight, sp_max_inflight, sp_diagnose, sp_schedules)) ->
        { Proto.sp_name; sp_seed; sp_corpus_size;
          sp_strategy =
            (match strategy with
            | 0 -> Kit_gen.Cluster.Df
            | 1 -> Kit_gen.Cluster.Df_ia
            | 2 -> Kit_gen.Cluster.Df_st k
            | _ -> Kit_gen.Cluster.Rand k);
          sp_weight; sp_max_inflight; sp_diagnose; sp_schedules })
      (triple (triple gen_name int nat) (pair (int_bound 3) nat)
         (quad int int bool int)))

let gen_request =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Proto.Submit s) gen_spec;
        map2 (fun x_name x_add -> Proto.Extend { x_name; x_add }) string int;
        return Proto.Status;
        map (fun n -> Proto.Results n) string;
        map (fun n -> Proto.Cancel n) string;
        return Proto.Shutdown ])

let gen_tenant_status =
  QCheck.Gen.(
    map
      (fun ((ts_name, ts_id, ts_state, ts_weight),
            (ts_done, ts_total, ts_executions, ts_reports),
            (ts_resumed, ts_dispatched, ts_contended, ts_steals),
            (ts_cov_vars, ts_cov_paired, ts_cov_attributed, ts_cov_gaps)) ->
        { Proto.ts_name; ts_id; ts_state; ts_weight; ts_done; ts_total;
          ts_executions; ts_reports; ts_resumed; ts_dispatched; ts_contended;
          ts_steals; ts_cov_vars; ts_cov_paired; ts_cov_attributed;
          ts_cov_gaps })
      (quad (quad string int string int) (quad int int int int)
         (quad int int int int) (quad int int int int)))

let gen_reply =
  QCheck.Gen.(
    oneof
      [ map2 (fun a_name a_id -> Proto.Accepted { a_name; a_id }) string int;
        map (fun s -> Proto.Rejected s) string;
        map2
          (fun (ps_procs, ps_live, ps_spawns) (ps_deaths, ps_respawns, st_tenants) ->
            Proto.Status_is
              { st_pool = { Proto.ps_procs; ps_live; ps_spawns; ps_deaths; ps_respawns };
                st_tenants })
          (triple int int int)
          (triple int int (list_size (int_bound 4) gen_tenant_status));
        map (fun s -> Proto.Summary s) string;
        map (fun s -> Proto.Not_ready s) string;
        return Proto.Acked;
        return Proto.Bye ])

let round_trips to_json of_json v =
  Kit_core.Codec.parse of_json (Kit_obs.Jsonl.to_string (to_json v)) = Ok v

let prop_request_roundtrip =
  QCheck.Test.make ~name:"proto: requests round-trip through JSON" ~count:400
    (QCheck.make gen_request)
    (round_trips Proto.request_to_json Proto.request_of_json)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"proto: replies round-trip through JSON" ~count:400
    (QCheck.make gen_reply)
    (round_trips Proto.reply_to_json Proto.reply_of_json)

(* One value per constructor, so a constructor the generators stopped
   producing still round-trips here. *)
let test_every_constructor_roundtrips () =
  let sp = { Proto.default_spec with Proto.sp_name = "alpha" } in
  let ts =
    { Proto.ts_name = "alpha"; ts_id = 0; ts_state = "finished"; ts_weight = 3;
      ts_done = 96; ts_total = 96; ts_executions = 120; ts_reports = -1;
      ts_resumed = 4; ts_dispatched = 92; ts_contended = 40; ts_steals = 2;
      ts_cov_vars = -1; ts_cov_paired = 0; ts_cov_attributed = 0;
      ts_cov_gaps = 0 }
  in
  List.iter
    (fun req ->
      check_bool "request round-trips" true
        (round_trips Proto.request_to_json Proto.request_of_json req))
    [ Proto.Submit sp; Proto.Extend { x_name = "alpha"; x_add = 8 };
      Proto.Status; Proto.Results "alpha"; Proto.Cancel "alpha";
      Proto.Shutdown ];
  List.iter
    (fun reply ->
      check_bool "reply round-trips" true
        (round_trips Proto.reply_to_json Proto.reply_of_json reply))
    [ Proto.Accepted { a_name = "alpha"; a_id = 1 }; Proto.Rejected "why";
      Proto.Status_is
        { st_pool =
            { Proto.ps_procs = 2; ps_live = 2; ps_spawns = 2; ps_deaths = 0;
              ps_respawns = 0 };
          st_tenants = [ ts ] };
      Proto.Summary "strategy DF-IA\n"; Proto.Not_ready "active";
      Proto.Acked; Proto.Bye ];
  (* a submission decodes through the spec codec, which validates names *)
  check_bool "an invalid tenant name is an Error" true
    (Result.is_error
       (Kit_core.Codec.parse Proto.request_of_json
          (Kit_obs.Jsonl.to_string
             (Proto.request_to_json
                (Proto.Submit { sp with Proto.sp_name = "bad name!" })))))

(* The client frame that used to kill the daemon: Marshal bytes where it
   expects a request. *)
let marshal_payload = Marshal.to_string (1, "x", [| 3.0 |]) [ Marshal.No_sharing ]

let decodes_totally s =
  (match Kit_core.Codec.parse Proto.request_of_json s with
  | Ok _ | Error _ -> true)
  && match Kit_core.Codec.parse Proto.reply_of_json s with Ok _ | Error _ -> true

let prop_decoders_total =
  (* Random bytes, random printable text, and 33 prefixes of a valid
     encoding, cut at evenly spaced points: each decoder returns Ok or
     Error, and never raises. *)
  let prefixes s =
    let n = String.length s in
    List.init 33 (fun i -> String.sub s 0 (n * i / 32))
  in
  QCheck.Test.make ~name:"proto: decoders never raise" ~count:200
    QCheck.(
      triple string (string_of Gen.printable)
        (pair (make gen_request) (make gen_reply)))
    (fun (bytes, text, (req, reply)) ->
      List.for_all decodes_totally
        ([ bytes; text; marshal_payload ]
        @ prefixes (Kit_obs.Jsonl.to_string (Proto.request_to_json req))
        @ prefixes (Kit_obs.Jsonl.to_string (Proto.reply_to_json reply))))

let test_wire_string_frames () =
  (* The socket's framing: a string round-trips, and a frame cut short
     by the peer is [None], never a partial payload. *)
  let rx, tx = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close rx)
    (fun () ->
      Wire.send_string tx marshal_payload;
      check_bool "a frame round-trips" true
        (Wire.recv_string rx = Some marshal_payload);
      let header = Bytes.create 8 in
      Bytes.set_int64_be header 0 100L;
      ignore (Unix.write tx header 0 8);
      let part = "{\"submit\":" in
      ignore (Unix.write_substring tx part 0 (String.length part));
      Unix.close tx;
      check_bool "a truncated frame is None" true (Wire.recv_string rx = None))

(* --- the scheduler ------------------------------------------------------ *)

(* Solo references per (seed, corpus_size): what a standalone sequential
   campaign of the tenant's spec produces. *)
let solo_cache : (int * int, Campaign.t) Hashtbl.t = Hashtbl.create 7

let solo ~seed ~corpus_size =
  match Hashtbl.find_opt solo_cache (seed, corpus_size) with
  | Some c -> c
  | None ->
    let c =
      Campaign.run { small_options with Campaign.seed; corpus_size }
    in
    Hashtbl.replace solo_cache (seed, corpus_size) c;
    c

let sched_cfg ?(procs = 2) ?(sabotage = Pool.no_sabotage) ?state_dir
    ?(ckpt_every = 1) () =
  { Sched.sc_pool = { test_config with Pool.procs; sabotage };
    sc_max_active = 4; sc_max_pending = 16; sc_state_dir = state_dir;
    sc_checkpoint_every = ckpt_every }

let spec ?(weight = 1) name seed =
  { Proto.default_spec with
    Proto.sp_name = name;
    sp_seed = seed;
    sp_corpus_size = 24;
    sp_weight = weight;
    sp_diagnose = false }

let submit_ok s sp =
  match Sched.request s (Proto.Submit sp) with
  | Proto.Accepted _ -> ()
  | Proto.Rejected why -> Alcotest.failf "submission rejected: %s" why
  | _ -> Alcotest.fail "unexpected submit reply"

let tenant_of s name =
  match Sched.find_name s name with
  | Some tn -> tn
  | None -> Alcotest.failf "tenant %s disappeared" name

let with_sched cfg f =
  let s = Sched.create cfg in
  Fun.protect ~finally:(fun () -> Sched.shutdown s) (fun () -> f s)

let prop_sched_equals_solo =
  (* The tentpole acceptance invariant: for any tenant count, weight
     vector and single-kill schedule, every tenant's report merged off
     the shared pool equals its own solo sequential campaign — funnel,
     report multiset and quarantine multiset. (Single kills only: a
     slot's sabotage is one-shot, so no case ever takes two strikes.) *)
  QCheck.Test.make ~name:"sched: every tenant = its solo campaign" ~count:4
    QCheck.(
      triple (int_range 1 3)
        (pair (int_range 1 4) (int_range 1 4))
        (pair (int_range 0 1) (int_range 1 3)))
    (fun (tenants, (w1, w2), (slot, after)) ->
      let procs = 2 in
      let cfg =
        sched_cfg ~procs
          ~sabotage:
            { Pool.no_sabotage with Pool.kill_after = [ (slot, after) ] }
          ()
      in
      with_sched cfg (fun s ->
          let seeds = List.filteri (fun i _ -> i < tenants) [ 11; 7; 5 ] in
          List.iteri
            (fun i seed ->
              let weight = if i = 0 then w1 else w2 in
              submit_ok s (spec ~weight (Printf.sprintf "t%d" i) seed))
            seeds;
          Sched.drain s;
          List.for_all
            (fun (i, seed) ->
              let tn = tenant_of s (Printf.sprintf "t%d" i) in
              match Tenant.result tn with
              | None -> false
              | Some c ->
                campaign_fps c = campaign_fps (solo ~seed ~corpus_size:24)
                && Tenant.summary tn
                   = Some (Proto.summary (solo ~seed ~corpus_size:24)))
            (List.mapi (fun i seed -> (i, seed)) seeds)))

let test_sched_fairness () =
  (* 3:1 quotas: among contended dispatches (both tenants had claimable
     work), the heavy tenant's share must converge to 0.75. *)
  with_sched (sched_cfg ~procs:2 ()) (fun s ->
      submit_ok s (spec ~weight:3 "heavy" 11);
      submit_ok s (spec ~weight:1 "light" 7);
      Sched.drain s;
      let h = Tenant.status (tenant_of s "heavy") in
      let l = Tenant.status (tenant_of s "light") in
      let hc = float_of_int h.Proto.ts_contended in
      let lc = float_of_int l.Proto.ts_contended in
      check_bool "enough contention to measure" true (hc +. lc >= 12.0);
      let share = hc /. (hc +. lc) in
      check_bool
        (Printf.sprintf "heavy contended share %.3f within 0.75±0.1" share)
        true
        (Float.abs (share -. 0.75) <= 0.1))

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_sched_resume () =
  (* Deterministic mid-run kill: step until a few representatives have
     completed (checkpointing each), abandon the scheduler without
     finishing — a SIGKILLed daemon — and resume in a fresh one. The
     checkpointed cases replay from cache and the final report equals
     the solo run. *)
  let dir = tmp "kit_test_serve_state" in
  rm_rf_dir dir;
  let cfg = sched_cfg ~procs:1 ~state_dir:dir ~ckpt_every:1 () in
  (let s = Sched.create cfg in
   submit_ok s (spec "res" 11);
   let tn = tenant_of s "res" in
   while Tenant.completed tn < 3 && Tenant.phase tn <> Tenant.Finished do
     ignore (Sched.step s ~timeout:0.2)
   done;
   check_bool "killed mid-run" true (Tenant.phase tn = Tenant.Active);
   (* no graceful shutdown: only the per-completion checkpoints exist *)
   Sched.shutdown s);
  with_sched cfg (fun s2 ->
      let restored = Sched.resume s2 in
      check_bool "tenant restored" true (List.mem_assoc "res" restored);
      check_bool "restored unfinished" true
        (List.assoc "res" restored = "pending");
      Sched.drain s2;
      let tn = tenant_of s2 "res" in
      check_bool "checkpointed cases replayed, not re-executed" true
        (Tenant.resumed tn > 0);
      check_bool "resumed report equals solo campaign" true
        (Tenant.summary tn = Some (Proto.summary (solo ~seed:11 ~corpus_size:24))));
  rm_rf_dir dir

let test_sched_restored_status () =
  (* A drained tenant's status survives a daemon restart: the log
     header records its progress, which the restored tenant — with no
     run of its own — reports. *)
  let dir = tmp "kit_test_serve_status" in
  rm_rf_dir dir;
  let cfg = sched_cfg ~procs:1 ~state_dir:dir ~ckpt_every:4 () in
  let shown (st : Proto.tenant_status) =
    ( st.Proto.ts_state,
      (st.Proto.ts_done, st.Proto.ts_total),
      (st.Proto.ts_executions, st.Proto.ts_reports) )
  in
  let before =
    with_sched cfg (fun s ->
        submit_ok s (spec "st" 11);
        Sched.drain s;
        shown (Tenant.status (tenant_of s "st")))
  in
  let _, (finished, _), (executions, reports) = before in
  check_bool "the tenant did work" true
    (finished > 0 && executions > 0 && reports >= 0);
  with_sched cfg (fun s ->
      ignore (Sched.resume s);
      check_bool "restored status = status before the restart" true
        (shown (Tenant.status (tenant_of s "st")) = before));
  rm_rf_dir dir

(* A tenant log written while reports still carried both receiver
   traces: spec "fixture", seed 7, corpus 48, DF-IA, no diagnosis,
   finished. Its decoders ignore the trace fields, so it restores with
   the solo summary, and extended by 8 it replays every logged
   representative and equals a solo run at corpus 56. *)
let test_log_with_traces_restores () =
  let fixture =
    match
      List.find_opt Sys.file_exists
        [ "golden/tenant-traces-c48.ckpt"; "test/golden/tenant-traces-c48.ckpt" ]
    with
    | Some path -> path
    | None -> Alcotest.fail "golden/tenant-traces-c48.ckpt not found"
  in
  let dir = tmp "kit_test_serve_fixture" in
  rm_rf_dir dir;
  Unix.mkdir dir 0o700;
  Out_channel.with_open_bin (Filename.concat dir "tenant-fixture.ckpt")
    (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_bin fixture In_channel.input_all));
  let logged =
    match
      Kit_core.Caselog.read fixture ~kind:Tenant.ckpt_kind (fun _ -> Ok ())
    with
    | Ok (records, 0) ->
      List.length
        (List.sort_uniq compare (List.concat_map (fun (_, es) -> List.map fst es) records))
    | Ok (_, torn) -> Alcotest.failf "the fixture has a %d-byte torn tail" torn
    | Error e -> Alcotest.failf "the fixture: %s" (Checkpoint.error_to_string e)
  in
  let solo corpus_size =
    Proto.summary
      (Campaign.run
         (Proto.options_of_spec
            { Proto.default_spec with
              Proto.sp_name = "fixture"; sp_corpus_size = corpus_size;
              sp_diagnose = false }))
  in
  with_sched (sched_cfg ~procs:1 ~state_dir:dir ()) (fun s ->
      check_bool "restored finished" true
        (Sched.resume s = [ ("fixture", "finished") ]);
      let tn = tenant_of s "fixture" in
      check_bool "restored summary = solo at corpus 48" true
        (Tenant.summary tn = Some (solo 48));
      (match Sched.request s (Proto.Extend { x_name = "fixture"; x_add = 8 }) with
      | Proto.Accepted _ -> ()
      | _ -> Alcotest.fail "extend of the restored tenant must be accepted");
      Sched.drain s;
      check_int "every logged representative replayed" logged (Tenant.resumed tn);
      check_bool "extended summary = solo at corpus 56" true
        (Tenant.summary tn = Some (solo 56)));
  rm_rf_dir dir

let test_sched_extend () =
  (* Corpus growth without re-paying finished clusters: extend a
     finished tenant and check the delta run equals a from-scratch
     campaign of the grown corpus while replaying cached clusters. *)
  with_sched (sched_cfg ~procs:2 ()) (fun s ->
      submit_ok s (spec "ext" 11);
      Sched.drain s;
      (match Sched.request s (Proto.Extend { x_name = "ext"; x_add = 8 }) with
      | Proto.Accepted _ -> ()
      | _ -> Alcotest.fail "extend of a finished tenant must be accepted");
      Sched.drain s;
      let tn = tenant_of s "ext" in
      check_bool "unchanged clusters replayed from cache" true
        (Tenant.resumed tn > 0);
      check_bool "extended report equals from-scratch grown campaign" true
        (Tenant.summary tn
        = Some (Proto.summary (solo ~seed:11 ~corpus_size:32))))

let test_sched_admission () =
  let cfg =
    { (sched_cfg ~procs:1 ()) with Sched.sc_max_pending = 1; sc_max_active = 1 }
  in
  with_sched cfg (fun s ->
      (match Sched.request s (Proto.Submit (spec "bad name!" 3)) with
      | Proto.Rejected _ -> ()
      | _ -> Alcotest.fail "invalid name must be rejected");
      submit_ok s (spec "a" 11);
      (match Sched.request s (Proto.Submit (spec "a" 7)) with
      | Proto.Rejected why ->
        check_bool "duplicate says so" true
          (String.length why > 0 && String.sub why 0 6 = "tenant")
      | _ -> Alcotest.fail "duplicate name must be rejected");
      (match Sched.request s (Proto.Submit (spec "b" 7)) with
      | Proto.Rejected _ -> ()
      | _ -> Alcotest.fail "over-bound submission must be rejected");
      (match Sched.request s (Proto.Results "a") with
      | Proto.Not_ready state -> Alcotest.(check string) "pending" "pending" state
      | _ -> Alcotest.fail "unfinished tenant results must be Not_ready");
      match Sched.request s (Proto.Results "nobody") with
      | Proto.Rejected _ -> ()
      | _ -> Alcotest.fail "unknown tenant must be rejected")

let poisoned_cfg = { Pool.no_sabotage with Pool.poison = [ 0 ] }

let deaths s =
  match Sched.request s Proto.Status with
  | Proto.Status_is { st_pool; _ } -> st_pool.Proto.ps_deaths
  | _ -> Alcotest.fail "no status"

let test_sched_two_strikes () =
  (* Case 0 kills every worker that takes it: the tenant quarantines it
     once, as the pool executor does, and logs the quarantine, so a
     resumed tenant replays it instead of feeding it to more workers. *)
  let sp = spec "poison" 11 in
  let straight =
    let prepared = Campaign.prepare (Proto.options_of_spec sp) in
    Campaign.execute
      ~executor:(Pool.executor { test_config with Pool.sabotage = poisoned_cfg })
      prepared
      (Campaign.generate_prepared prepared)
  in
  with_sched (sched_cfg ~sabotage:poisoned_cfg ()) (fun s ->
      submit_ok s sp;
      Sched.drain s;
      let c = Option.get (Tenant.result (tenant_of s "poison")) in
      check_int "one Worker_lost quarantine" 1
        (List.length
           (List.filter
              (fun cr ->
                match cr.Supervisor.c_reason with
                | Supervisor.Worker_lost _ -> true
                | _ -> false)
              c.Campaign.quarantined));
      check_bool "summary = the pool executor's" true
        (Tenant.summary (tenant_of s "poison")
        = Some (Proto.summary straight)));
  (* One worker runs case 0 twice in a row before anything else; the
     scheduler stops one completion later, with the rest to do. *)
  let dir = tmp "kit_test_serve_poison" in
  rm_rf_dir dir;
  let cfg = sched_cfg ~procs:1 ~sabotage:poisoned_cfg ~state_dir:dir () in
  with_sched cfg (fun s ->
      submit_ok s sp;
      while deaths s < 2 || Tenant.completed (tenant_of s "poison") < 2 do
        if Tenant.phase (tenant_of s "poison") = Tenant.Finished then
          Alcotest.fail "finished before the quarantine";
        ignore (Sched.step s ~timeout:0.2)
      done;
      check_bool "stopped mid-run" true
        (Tenant.phase (tenant_of s "poison") = Tenant.Active));
  with_sched cfg (fun s ->
      ignore (Sched.resume s);
      Sched.drain s;
      check_int "the quarantine replays: no worker dies" 0 (deaths s);
      check_bool "resumed summary = straight-through" true
        (Tenant.summary (tenant_of s "poison")
        = Some (Proto.summary straight)));
  rm_rf_dir dir

let test_sched_cancel () =
  (* A tenant cancelled with a job in flight takes no late completion:
     its log stays deleted, and the other tenant is unaffected. *)
  let dir = tmp "kit_test_serve_cancel" in
  rm_rf_dir dir;
  with_sched (sched_cfg ~procs:2 ~state_dir:dir ~ckpt_every:1 ()) (fun s ->
      submit_ok s { (spec "gone" 11) with Proto.sp_corpus_size = 96 };
      submit_ok s (spec "kept" 7);
      let in_flight () =
        let st = Tenant.status (tenant_of s "gone") in
        st.Proto.ts_done >= 1
        && st.Proto.ts_dispatched > st.Proto.ts_done - st.Proto.ts_resumed
      in
      while not (in_flight ()) do
        if Tenant.phase (tenant_of s "gone") = Tenant.Finished then
          Alcotest.fail "gone finished before a cancel could land";
        ignore (Sched.step s ~timeout:0.2)
      done;
      (match Sched.request s (Proto.Cancel "gone") with
      | Proto.Acked -> ()
      | _ -> Alcotest.fail "cancel must be acked");
      Sched.drain s;
      check_bool "the log stays deleted" false
        (Sys.file_exists (Filename.concat dir "tenant-gone.ckpt"));
      check_bool "cancelled" true
        (Tenant.phase (tenant_of s "gone") = Tenant.Cancelled);
      check_bool "the other tenant = its solo run" true
        (Tenant.summary (tenant_of s "kept")
        = Some (Proto.summary (solo ~seed:7 ~corpus_size:24))));
  rm_rf_dir dir

(* --- pool resume through the log ------------------------------------------ *)

(* The whole campaign in the log: a process killed on its last
   completion, after which nothing is left to execute. *)
let full_log path =
  let total =
    List.length (Lazy.force baseline).Campaign.generation.Kit_gen.Cluster.reps
  in
  (match
     Resume.run_process ~executor:(Pool.executor test_config) ~kill:total
       ~every:1 path small_options
   with
  | _, None -> ()
  | _, Some _ -> Alcotest.fail "the kill must fire on the last case");
  total

let test_pool_resume_all_restored () =
  (* A resume where every case restores replays them all and runs no
     pool at all. *)
  Resume.with_path "kit_test_pool_full" (fun path ->
      let total = full_log path in
      let replayed, c = pool_campaign path in
      check_int "all cases restored and counted" total replayed;
      check_bool "restored outcome equals the original" true
        (campaign_fps c = Lazy.force reference);
      check_bool "the log is deleted once the result is built" false
        (Sys.file_exists path))

let test_pool_resume_torn_tail () =
  (* A kill mid-append leaves a torn tail on the log: resume drops it,
     restores every complete record and re-executes the rest. *)
  Resume.with_path "kit_test_pool_torn" (fun path ->
      let total = full_log path in
      let full = In_channel.with_open_bin path In_channel.input_all in
      let resume_from contents =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc contents);
        let replayed, c = pool_campaign path in
        check_bool "resumed outcome equals the crash-free run" true
          (campaign_fps c = Lazy.force reference);
        replayed
      in
      check_int "a garbage tail loses nothing" total
        (resume_from (full ^ "torn"));
      let cut = resume_from (String.sub full 0 (String.length full / 2)) in
      check_bool "a cut log restores a strict prefix" true
        (cut > 0 && cut < total))

let suite =
  [
    Alcotest.test_case "jobqueue merge order is submit order" `Quick
      test_jobqueue_submit_order;
    Alcotest.test_case "jobqueue release/deal reshards deterministically"
      `Quick test_jobqueue_reshard;
    Alcotest.test_case "jobqueue quarantine retires a job for good" `Quick
      test_jobqueue_quarantine;
    QCheck_alcotest.to_alcotest prop_jobqueue_matches_model;
    Alcotest.test_case "jobqueue drains 100k jobs with claims, steals, a death"
      `Quick test_jobqueue_scales;
    Alcotest.test_case "checkpoint round-trips through KITCKPT1" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint corruption is a typed error" `Quick
      test_checkpoint_typed_errors;
    Alcotest.test_case "checkpoint survives a crash before its rename"
      `Quick test_checkpoint_crash_before_rename;
    Alcotest.test_case "pool matches the sequential campaign run" `Quick
      test_pool_matches_sequential;
    Alcotest.test_case "SIGKILLed worker reshards, never aborts" `Quick
      test_pool_survives_sigkill;
    QCheck_alcotest.to_alcotest prop_pool_equals_sequential;
    Alcotest.test_case "twice-lethal case is quarantined, not retried" `Quick
      test_pool_poison_two_strikes;
    Alcotest.test_case "hung worker is caught by the heartbeat" `Quick
      test_pool_heartbeat_timeout;
    Alcotest.test_case "dead pool aborts with checkpoint; resume skips done"
      `Quick test_pool_abort_and_resume;
    Alcotest.test_case "poll reads a finished job before judging deadlines"
      `Quick test_pool_reads_before_judging;
    Alcotest.test_case "deal with no survivors raises the typed error" `Quick
      test_jobqueue_deal_no_survivors;
    Alcotest.test_case "oversized wire frame raises the typed error" `Quick
      test_wire_oversized;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_roundtrip;
    Alcotest.test_case "every request and reply constructor round-trips"
      `Quick test_every_constructor_roundtrips;
    QCheck_alcotest.to_alcotest prop_decoders_total;
    Alcotest.test_case "string frames round-trip; a cut frame is None" `Quick
      test_wire_string_frames;
    QCheck_alcotest.to_alcotest prop_sched_equals_solo;
    Alcotest.test_case "sched holds 3:1 quotas under contention" `Quick
      test_sched_fairness;
    Alcotest.test_case "killed daemon resumes tenants from checkpoints"
      `Quick test_sched_resume;
    Alcotest.test_case "a restored tenant shows its saved progress" `Quick
      test_sched_restored_status;
    Alcotest.test_case "extend replays cached clusters" `Quick
      test_sched_extend;
    Alcotest.test_case "a tenant log with report traces restores and extends"
      `Quick test_log_with_traces_restores;
    Alcotest.test_case "admission control rejects bad submissions" `Quick
      test_sched_admission;
    Alcotest.test_case "sched quarantines a twice-lethal case and logs it"
      `Quick test_sched_two_strikes;
    Alcotest.test_case "cancel drops a tenant's late results and its log"
      `Quick test_sched_cancel;
    Alcotest.test_case "fully-restored pool resume reports its count" `Quick
      test_pool_resume_all_restored;
    Alcotest.test_case "pool resume drops a torn tail, re-runs the rest"
      `Quick test_pool_resume_torn_tail;
  ]
