(* The kit-serve scheduler. See sched.mli.

   One single-threaded event loop multiplexes every tenant's cluster
   representatives onto one shared worker pool. Fair sharing is deficit
   round robin: each tenant accrues [weight] credits per refill, a
   dispatch spends one, and an idle tenant's unspent credit can be
   stolen by whoever has runnable work — so quotas hold under
   contention and the pool never idles while anyone has work. *)

module Campaign = Kit_core.Campaign
module Jobqueue = Kit_core.Jobqueue
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer
module Jsonl = Kit_obs.Jsonl
module Codec = Kit_core.Codec

type config = {
  sc_pool : Pool.config;
  sc_max_active : int;
  sc_max_pending : int;
  sc_state_dir : string option;
  sc_checkpoint_every : int;
}

let default_config =
  { sc_pool = Pool.default_config; sc_max_active = 4; sc_max_pending = 16;
    sc_state_dir = None; sc_checkpoint_every = 16 }

exception Dead_pool
(* Raised by [step] after checkpointing every tenant: all worker slots
   are dead with work remaining. *)

type t = {
  cfg : config;
  obs : Obs.t;
  pool : Pool.t;
  tenants : (int, Tenant.t) Hashtbl.t;
  mutable ring : int list;              (* tenant ids, submission order *)
  mutable next_id : int;
  spans : (int, Tracer.span) Hashtbl.t; (* live per-submission spans *)
}

let sm name t = Metrics.counter ~always:true t.obs.Obs.metrics ("serve." ^ name)
let sg name t = Metrics.gauge ~always:true t.obs.Obs.metrics ("serve." ^ name)

let create ?obs cfg =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    cfg.sc_state_dir;
  { cfg; obs; pool = Pool.create ~obs cfg.sc_pool;
    tenants = Hashtbl.create 16; ring = []; next_id = 0;
    spans = Hashtbl.create 16 }

let shutdown t = Pool.shutdown t.pool

let tenants t =
  List.filter_map (Hashtbl.find_opt t.tenants) t.ring

let find_name t name =
  List.find_opt (fun tn -> Tenant.name tn = name) (tenants t)

let count_phase t p =
  List.length (List.filter (fun tn -> Tenant.phase tn = p) (tenants t))

let add_tenant t tn =
  Hashtbl.replace t.tenants (Tenant.id tn) tn;
  t.ring <- t.ring @ [ Tenant.id tn ]

let begin_span t tn =
  Hashtbl.replace t.spans (Tenant.id tn)
    (Tracer.span t.obs.Obs.tracer "serve.submission"
       ~attrs:
         [ ("tenant", Tenant.name tn);
           ("submission", string_of_int (Tenant.id tn)) ])

let end_span t tn =
  match Hashtbl.find_opt t.spans (Tenant.id tn) with
  | Some span ->
    Tracer.finish t.obs.Obs.tracer span;
    Hashtbl.remove t.spans (Tenant.id tn)
  | None -> ()

(* -- checkpointing -------------------------------------------------------- *)

let checkpoint_all t = List.iter Tenant.save_checkpoint (tenants t)

let resume t =
  match t.cfg.sc_state_dir with
  | None -> []
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 11
             && String.sub f 0 7 = "tenant-"
             && Filename.check_suffix f ".ckpt")
      |> List.sort String.compare
    in
    List.filter_map
      (fun file ->
        let path = Filename.concat dir file in
        match
          Tenant.of_checkpoint ~every:t.cfg.sc_checkpoint_every ~id:t.next_id
            path
        with
        | Ok tn ->
          t.next_id <- t.next_id + 1;
          add_tenant t tn;
          if Tenant.phase tn <> Tenant.Finished then begin_span t tn;
          let state = Tenant.phase_string (Tenant.phase tn) in
          Some
            ( Tenant.name tn,
              if Tenant.torn tn = 0 then state
              else
                Printf.sprintf "%s; dropped a %d-byte torn tail" state
                  (Tenant.torn tn) )
        | Error why -> Some (file, "unreadable checkpoint: " ^ why))
      files

(* -- admission ------------------------------------------------------------ *)

(* The strategies [kit submit] accepts. *)
let submittable = function
  | Kit_gen.Cluster.Df_ia | Kit_gen.Cluster.Df_st (1 | 2) -> true
  | Kit_gen.Cluster.Rand n -> n >= 1
  | Kit_gen.Cluster.Df | Kit_gen.Cluster.Df_st _ -> false

let reject t why = Metrics.inc (sm "rejected" t); Proto.Rejected why

let submit t spec =
  let reject = reject t in
  if not (Proto.valid_name spec.Proto.sp_name) then
    reject "invalid tenant name (1-64 chars from [A-Za-z0-9_-])"
  else if find_name t spec.Proto.sp_name <> None then
    reject ("tenant name already in use: " ^ spec.Proto.sp_name)
  else if spec.Proto.sp_corpus_size < 1 then
    reject "corpus size must be at least 1"
  else if spec.Proto.sp_weight < 1 then reject "weight must be at least 1"
  else if spec.Proto.sp_schedules < 1 then
    reject "schedules must be at least 1"
  else if not (submittable spec.Proto.sp_strategy) then
    reject
      ("strategy must be df-ia, df-st-1, df-st-2 or a RAND budget of at \
        least 1, not " ^ Kit_gen.Cluster.strategy_name spec.Proto.sp_strategy)
  else if count_phase t Tenant.Pending >= t.cfg.sc_max_pending then
    reject
      (Printf.sprintf "pending queue full (%d submissions waiting)"
         (count_phase t Tenant.Pending))
  else begin
    let tn =
      Tenant.create ?state_dir:t.cfg.sc_state_dir
        ~every:t.cfg.sc_checkpoint_every ~id:t.next_id spec
    in
    t.next_id <- t.next_id + 1;
    add_tenant t tn;
    begin_span t tn;
    Metrics.inc (sm "submitted" t);
    Proto.Accepted { a_name = Tenant.name tn; a_id = Tenant.id tn }
  end

(* -- activation ----------------------------------------------------------- *)

let activate_pending t =
  List.iter
    (fun tn ->
      if
        Tenant.phase tn = Tenant.Pending
        && count_phase t Tenant.Active < t.cfg.sc_max_active
      then
        match Tenant.activate tn t.pool with
        | () ->
          Metrics.inc (sm "activated" t);
          Metrics.add (sm "resumed_cases" t) (Tenant.resumed tn)
        | exception e ->
          Tenant.fail tn (Printexc.to_string e);
          Metrics.inc (sm "failed" t);
          end_span t tn)
    (tenants t)

(* -- deficit round robin -------------------------------------------------- *)

let refill_cap = 8.0

let actives t =
  List.filter (fun tn -> Tenant.phase tn = Tenant.Active) (tenants t)

(* Pick the tenant a slot with room should serve next, in ring order:
   first entitled claimable tenant (spend quota); if quota credit is
   stranded on tenants that cannot run (momentarily out of claimable
   work), let the first claimable tenant steal it (its deficit
   goes negative — the debt repays on later refills); otherwise refill
   every active tenant by its weight (capped at [refill_cap] x weight)
   and try again. [active] is [actives t]: phases do not change while a
   slot is being served. *)
let rec pick_tenant active =
  let runnable = List.filter Tenant.claimable active in
  match runnable with
  | [] -> None
  | first :: _ -> (
    match List.find_opt (fun tn -> Tenant.deficit tn >= 1.0) runnable with
    | Some tn -> Some (tn, false)
    | None ->
      let stranded =
        List.exists
          (fun tn -> Tenant.deficit tn >= 1.0 && not (Tenant.claimable tn))
          active
      in
      if stranded then Some (first, true)
      else begin
        List.iter
          (fun tn ->
            let w = float_of_int (Tenant.weight tn) in
            Tenant.set_deficit tn
              (Float.min (Tenant.deficit tn +. w) (refill_cap *. w)))
          active;
        pick_tenant active
      end)

(* Fill every live worker's flight: one case per slot with room, round
   after round, until the slots are full or no tenant has work. *)
let rec dispatch_idle t =
  let dispatched =
    List.fold_left
      (fun dispatched slot ->
        let active = actives t in
        match pick_tenant active with
        | None -> dispatched
        | Some (tn, stolen) ->
          let contended =
            List.length (List.filter Tenant.claimable active) >= 2
          in
          if Pool.dispatch t.pool (Option.get (Tenant.jobs tn)) ~slot then begin
            Tenant.set_deficit tn (Tenant.deficit tn -. 1.0);
            Tenant.note_dispatch tn ~contended ~stolen;
            Metrics.inc (sm "dispatched" t);
            if stolen then Metrics.inc (sm "steals" t);
            true
          end
          else dispatched)
      false (Pool.idle_slots t.pool)
  in
  if dispatched then dispatch_idle t

(* -- events --------------------------------------------------------------- *)

(* Events go through the pool's job policy: a completion to its own
   tenant, if that tenant is still active — a cancelled or finished one
   takes no more — and a worker death to every active tenant, whose
   queues it reshards. *)
let handle_event t ev =
  let handle tn =
    Option.iter (fun j -> Pool.handle t.pool j ev) (Tenant.jobs tn)
  in
  match ev with
  | Pool.Job_done { ev_slot; ev_tenant; ev_id; _ } -> (
    match Hashtbl.find_opt t.tenants ev_tenant with
    | Some tn when Tenant.phase tn = Tenant.Active ->
      handle tn;
      Metrics.inc (sm "completed_cases" t);
      Tracer.instant t.obs.Obs.tracer "serve.case.done"
        ~attrs:
          [ ("tenant", Tenant.name tn); ("case", string_of_int ev_id);
            ("slot", string_of_int ev_slot) ]
    | _ -> ())
  | Pool.Worker_lost _ -> List.iter handle (actives t)

(* -- finishing ------------------------------------------------------------ *)

let finish_drained t =
  List.iter
    (fun tn ->
      if Tenant.is_drained tn then begin
        (match Tenant.finish tn with
        | (_ : Campaign.t) -> Metrics.inc (sm "finished" t)
        | exception e ->
          Tenant.fail tn (Printexc.to_string e);
          Metrics.inc (sm "failed" t));
        Pool.retire t.pool ~tenant:(Tenant.id tn);
        Tenant.save_checkpoint tn;
        end_span t tn
      end)
    (tenants t)

(* -- the loop ------------------------------------------------------------- *)

let step ?extra t ~timeout =
  activate_pending t;
  dispatch_idle t;
  let events, readable = Pool.poll ?extra t.pool ~timeout in
  List.iter (handle_event t) events;
  finish_drained t;
  Metrics.set_gauge (sg "active" t)
    (float_of_int (count_phase t Tenant.Active));
  Metrics.set_gauge (sg "pending" t)
    (float_of_int (count_phase t Tenant.Pending));
  if
    Pool.live_count t.pool = 0
    && List.exists (fun tn -> not (Tenant.is_drained tn)) (actives t)
  then begin
    checkpoint_all t;
    raise Dead_pool
  end;
  readable

(* -- requests ------------------------------------------------------------- *)

let cancel t name =
  match find_name t name with
  | None -> Proto.Rejected ("no such tenant: " ^ name)
  | Some tn ->
    (match Tenant.phase tn with
    | Tenant.Pending | Tenant.Active ->
      let was_active = Tenant.phase tn = Tenant.Active in
      Tenant.cancel tn;
      if was_active then Pool.retire t.pool ~tenant:(Tenant.id tn);
      Metrics.inc (sm "cancelled" t);
      end_span t tn
    | Tenant.Finished | Tenant.Cancelled | Tenant.Failed _ -> ());
    Proto.Acked

let results t name =
  match find_name t name with
  | None -> Proto.Rejected ("no such tenant: " ^ name)
  | Some tn -> (
    match Tenant.phase tn with
    | Tenant.Finished -> (
      match Tenant.summary tn with
      | Some s -> Proto.Summary s
      | None -> Proto.Rejected "finished without a summary")
    | (Tenant.Pending | Tenant.Active) as p ->
      Proto.Not_ready (Tenant.phase_string p)
    | (Tenant.Cancelled | Tenant.Failed _) as p ->
      Proto.Rejected ("tenant " ^ Tenant.phase_string p))

let extend t name add =
  match find_name t name with
  | None -> Proto.Rejected ("no such tenant: " ^ name)
  | Some tn -> (
    if add < 1 then Proto.Rejected "extension must add at least 1 program"
    else
      match Tenant.phase tn with
      | Tenant.Finished ->
        Tenant.extend tn ~add;
        begin_span t tn;
        Metrics.inc (sm "extended" t);
        Proto.Accepted { a_name = Tenant.name tn; a_id = Tenant.id tn }
      | p ->
        Proto.Rejected
          ("only finished tenants can be extended; " ^ name ^ " is "
         ^ Tenant.phase_string p))

let status t =
  Proto.Status_is
    { st_pool =
        (let core = Pool.core_stats t.pool in
         { Proto.ps_procs = t.cfg.sc_pool.Pool.procs;
           ps_live = Pool.live_count t.pool;
           ps_spawns = core.Pool.c_spawns;
           ps_deaths = core.Pool.c_deaths;
           ps_respawns = core.Pool.c_respawns });
      st_tenants = List.map Tenant.status (tenants t) }

let request t (req : Proto.request) : Proto.reply =
  match req with
  | Proto.Submit spec -> submit t spec
  | Proto.Extend { x_name; x_add } -> extend t x_name x_add
  | Proto.Status -> status t
  | Proto.Results name -> results t name
  | Proto.Cancel name -> cancel t name
  | Proto.Shutdown -> checkpoint_all t; Proto.Bye

(* -- the daemon ----------------------------------------------------------- *)

(* A connection accepted and not yet answered: the bytes of its request
   so far, and when it is closed unanswered. *)
type client = { fd : Unix.file_descr; inbox : Wire.inbox; deadline : float }

(* A client writes its one frame right after it connects, so a second is
   ample, and a constant: no reply depends on it. *)
let client_deadline_s = 1.0

(* Connections open at once; more wait in the listen backlog, so a flood
   of them cannot run the daemon out of descriptors [select] takes. *)
let max_clients = 64

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Read what a readable connection sent; [true] once it is done with:
   answered, or hung up before a whole frame (no reply). *)
let read_client t ~stop c =
  let answer r =
    let out = Buffer.create 256 in
    Wire.add_frame out (Jsonl.to_string (Proto.reply_to_json r));
    (try Wire.flush c.fd out with Unix.Unix_error _ | Sys_error _ -> ());
    true
  in
  match Wire.fill c.fd c.inbox with
  | false | (exception Unix.Unix_error _) -> true
  | true -> (
    match Wire.take c.inbox with
    | Wire.Short -> false
    | Wire.Bad why -> answer (reject t ("bad request frame: " ^ why))
    | Wire.Frame payload -> (
      match Codec.parse Proto.request_of_json payload with
      | Ok req ->
        if req = Proto.Shutdown then stop := true;
        answer (request t req)
      | Error e -> answer (reject t ("undecodable request: " ^ e))))

let serve t lfd =
  let stop = ref false and clients = ref [] in
  let timeouts = sm "client_timeouts" t in
  let on_signal = Sys.Signal_handle (fun _ -> stop := true) in
  let prev_term = Sys.signal Sys.sigterm on_signal in
  let prev_int = Sys.signal Sys.sigint on_signal in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      List.iter close_client !clients)
    (fun () ->
      while not !stop do
        (* A step's select waits at most 0.2 s, so a deadline is judged
           about that late at most. *)
        let fds = List.map (fun c -> c.fd) !clients in
        let extra = if List.length fds < max_clients then lfd :: fds else fds in
        match step t ~extra ~timeout:0.2 with
        | readable ->
          (* Bytes that arrived in time are read before any deadline is
             judged. *)
          let now = Unix.gettimeofday () in
          let timed_out c = now > c.deadline && (Metrics.inc timeouts; true) in
          let finished c =
            (List.mem c.fd readable && read_client t ~stop c) || timed_out c
          in
          let closed, still_open = List.partition finished !clients in
          List.iter close_client closed;
          clients := still_open;
          if List.mem lfd readable then (
            match Unix.accept ~cloexec:true lfd with
            | fd, _ ->
              clients :=
                { fd; inbox = Wire.inbox (); deadline = now +. client_deadline_s }
                :: !clients
            | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
              ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      checkpoint_all t)
