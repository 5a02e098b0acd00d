(* The generic campaign job queue. See jobqueue.mli for the contract.

   Jobs live in a hashtable keyed by id and in one map keyed by submit
   sequence number, so every ordered read walks that map and the merge
   order is a function of the submissions alone — never of worker
   scheduling. More indexes make the per-dispatch operations cheap:
   per worker, the assigned-but-unclaimed jobs in submit order with
   their count, and the counts of live (queued, assigned, running) and
   of assigned jobs. Every status write goes through [set], which moves
   the job between the indexes, so they never drift from the statuses.
   A claim, completion or drain check costs O(log n) or less, a steal
   adds one pass over the workers, and a grouped steal one pass over
   the victim's queue; only the bulk operations ([assign_round_robin],
   [release]) and the list-returning reads walk every job. *)

module Imap = Map.Make (Int)

type ('a, 'b) status =
  | Queued
  | Assigned of int                    (* in worker's queue, not started *)
  | Running of int                     (* claimed by worker *)
  | Completed of 'b

type ('a, 'b) job = {
  j_id : int;
  j_seq : int;                         (* submit order *)
  j_group : int;                       (* the group key; unused ungrouped *)
  j_payload : 'a;
  mutable j_status : ('a, 'b) status;
}

(* One worker's assigned-but-unclaimed jobs, keyed by submit sequence. *)
type ('a, 'b) shard = {
  mutable s_jobs : ('a, 'b) job Imap.t;
  mutable s_len : int;
}

type ('a, 'b) t = {
  jobs : (int, ('a, 'b) job) Hashtbl.t;
  mutable by_seq : ('a, 'b) job Imap.t;
  shards : (int, ('a, 'b) shard) Hashtbl.t;  (* by worker id *)
  group : ('a -> int) option;
  mutable live : int;                  (* queued, assigned or running *)
  mutable assigned : int;
  mutable seq : int;
  mutable next_id : int;
  mutable resharded : int;
  mutable stolen : int;
}

let create ?group () =
  { jobs = Hashtbl.create 64; by_seq = Imap.empty; shards = Hashtbl.create 8;
    group; live = 0; assigned = 0; seq = 0; next_id = 0; resharded = 0;
    stolen = 0 }

let shard t w =
  match Hashtbl.find_opt t.shards w with
  | Some s -> s
  | None ->
    let s = { s_jobs = Imap.empty; s_len = 0 } in
    Hashtbl.replace t.shards w s;
    s

(* Add the job to ([add]) or take it out of the indexes its current
   status puts it in. *)
let account t j ~add =
  let d = if add then 1 else -1 in
  match j.j_status with
  | Assigned w ->
    let s = shard t w in
    s.s_jobs <-
      (if add then Imap.add j.j_seq j s.s_jobs else Imap.remove j.j_seq s.s_jobs);
    s.s_len <- s.s_len + d;
    t.assigned <- t.assigned + d;
    t.live <- t.live + d
  | Queued | Running _ -> t.live <- t.live + d
  | Completed _ -> ()

(* The one status write. *)
let set t j status =
  account t j ~add:false;
  j.j_status <- status;
  account t j ~add:true

let job t id =
  match Hashtbl.find_opt t.jobs id with
  | Some j -> j
  | None -> raise Not_found

let submit_as t ~id payload =
  if Hashtbl.mem t.jobs id then invalid_arg "Jobqueue.submit_as: id taken";
  let j =
    { j_id = id; j_seq = t.seq;
      j_group = (match t.group with Some g -> g payload | None -> 0);
      j_payload = payload; j_status = Queued }
  in
  Hashtbl.replace t.jobs id j;
  t.by_seq <- Imap.add j.j_seq j t.by_seq;
  account t j ~add:true;
  t.seq <- t.seq + 1;
  if id >= t.next_id then t.next_id <- id + 1

let submit t payload =
  let id = t.next_id in
  submit_as t ~id payload;
  id

let mem t id = Hashtbl.mem t.jobs id

let payload t id = (job t id).j_payload

(* The jobs [f] keeps, in submit order. *)
let collect t f =
  Imap.fold (fun _ j acc -> match f j with Some x -> x :: acc | None -> acc)
    t.by_seq []
  |> List.rev

let assign_round_robin t ~workers =
  let workers = max 1 workers in
  let buckets = Array.make workers [] in
  let i = ref 0 in
  Imap.iter
    (fun _ j ->
      match j.j_status with
      | Queued ->
        let w = !i mod workers in
        set t j (Assigned w);
        buckets.(w) <- (j.j_id, j.j_payload) :: buckets.(w);
        incr i
      | Assigned _ | Running _ | Completed _ -> ())
    t.by_seq;
  Array.map List.rev buckets

exception No_survivors

let deal t jobs ~to_ =
  match to_ with
  | [] -> raise No_survivors
  | survivors ->
    let arr = Array.of_list survivors in
    List.iteri
      (fun k (id, _) -> set t (job t id) (Assigned arr.(k mod Array.length arr)))
      jobs

(* Mark [j] running on [worker] and hand it out. *)
let start t j ~worker =
  set t j (Running worker);
  (j.j_id, j.j_payload)

let claim_next t ~worker =
  match Hashtbl.find_opt t.shards worker with
  | Some s when s.s_len > 0 ->
    Some (start t (snd (Imap.min_binding s.s_jobs)) ~worker)
  | Some _ | None -> None

let steal t ~thief =
  (* Victim: the longest assigned queue that is not the thief's own;
     take the group of its newest (highest-seq) assigned job so the
     victim's own claim order stays untouched at the front.
     Deterministic: longest queue wins, lowest worker id breaks ties. *)
  let victim =
    Hashtbl.fold
      (fun w s best ->
        if w = thief || s.s_len = 0 then best
        else
          match best with
          | Some (bw, bs) when bs.s_len > s.s_len || (bs.s_len = s.s_len && bw < w)
            -> best
          | Some _ | None -> Some (w, s))
      t.shards None
  in
  Option.map
    (fun (_, s) ->
      let newest = snd (Imap.max_binding s.s_jobs) in
      let group =
        if t.group = None then Imap.singleton newest.j_seq newest
        else Imap.filter (fun _ j -> j.j_group = newest.j_group) s.s_jobs
      in
      Imap.iter (fun _ j -> set t j (Assigned thief)) group;
      t.stolen <- t.stolen + Imap.cardinal group;
      start t (snd (Imap.min_binding group)) ~worker:thief)
    victim

let release t ~worker =
  let orphans =
    collect t (fun j ->
        match j.j_status with
        | (Assigned w | Running w) when w = worker -> Some j
        | Queued | Assigned _ | Running _ | Completed _ -> None)
  in
  List.iter (fun j -> set t j Queued) orphans;
  t.resharded <- t.resharded + List.length orphans;
  List.map (fun j -> (j.j_id, j.j_payload)) orphans

let complete t id r = set t (job t id) (Completed r)

let result t id =
  match Hashtbl.find_opt t.jobs id with
  | Some { j_status = Completed r; _ } -> Some r
  | Some _ | None -> None

let unfinished t =
  collect t (fun j ->
      match j.j_status with
      | Queued | Assigned _ | Running _ -> Some (j.j_id, j.j_payload)
      | Completed _ -> None)

let assigned_count t = t.assigned
let is_drained t = t.live = 0
let resharded t = t.resharded
let stolen t = t.stolen
