(* The crash-isolated process pool. See pool.mli for the contract.

   Topology: the parent spawns [procs] workers by re-executing its own
   image ([Sys.executable_name] with [KIT_POOL_WORKER] in the
   environment; {!worker_entry} is the trampoline). [Unix.fork] is not
   an option: OCaml 5 forbids it for the lifetime of any process that
   has ever spawned a domain, and the pool must coexist with the
   domain-distributed campaign paths in one executable. Each worker owns
   a job pipe (parent writes) and a result pipe (worker writes), both
   carrying length-prefixed frames (Wire) whose payloads are Marshal
   bytes, encoded and decoded here and nowhere else in the library. At
   spawn the coordinator writes a [Hello] with the worker's slot and
   sabotage and one [Context] frame per registered tenant in one write
   — spawned workers share no memory, so campaign inputs travel the
   wire (plain data: the options hold no closure).

   The pool pays per batch, not per case. A worker holds up to [depth]
   cases at once, its flight: the coordinator queues their [Job] frames
   and writes them in one write per [poll], and takes every [Done]
   frame one read of a result pipe brings in. The worker runs its
   flight in order and writes each [Done] frame as soon as the case
   completes, before it starts the next, so the oldest case it has not
   reported is the one it was running: a death blames exactly that case.

   The pool core is tenant-agnostic plumbing: it spawns, feeds, reaps,
   heartbeat-kills and respawns workers, and reports what happened as
   {!event}s. Policy — which job runs next, strikes, quarantine,
   resharding — lives once, in the job policy ([jobs]) over a
   {!Kit_core.Jobqueue}, which both drivers call: {!execute} (the
   single-campaign executor behind [kit campaign --procs]) and the
   multi-tenant scheduler ({!Kit_serve.Sched}).

   Fd hygiene is what makes death detection sound: the parent-side pipe
   ends are close-on-exec, and the child-side ends — advertised to the
   worker by number through the environment variable — are closed by
   the parent immediately after each (sequential) spawn, so no later
   sibling can inherit them. The wire deliberately does NOT ride on the
   worker's stdin/stdout: module initialisers of the re-executed binary
   run before {!worker_entry} and are free to print (qcheck's seed
   banner, for one), and any such bytes would desynchronise the framed
   stream. So a worker's result-pipe write end lives in exactly one
   process, and its death turns into EOF on the parent's read end the
   moment the kernel reaps it. waitpid gives the why (exit code or
   signal); a wall-clock deadline on each worker's oldest case catches
   the one failure mode with no signal at all, the hang.

   The coordinator's writes block, so no worker may block on it in
   turn: in-flight [Done] bytes fit the result pipe. A worker writes at
   most [depth] [Done] frames the coordinator has not read — one per
   case in its flight — and they measured at most 520 bytes (RAND 1500
   and DF-IA over 320 programs), so 16 of them fill under 9 KB of a
   64 KB pipe. A worker therefore never waits to write a result, and
   always comes back to read its job pipe, even while the coordinator
   is writing it a large [Context] frame.

   Workers never touch the parent's state: they exit only via
   [Unix._exit] (0 on Quit/EOF, 71 on Supervisor.Gave_up, 70 on any
   other escaped exception or an undecodable frame), so an exception
   inside a worker is crash isolation, not a half-initialised replay of
   the parent. *)

module Program = Kit_abi.Program
module Testcase = Kit_gen.Testcase
module Supervisor = Kit_exec.Supervisor
module Campaign = Kit_core.Campaign
module Jobqueue = Kit_core.Jobqueue
module Obs = Kit_obs.Obs
module Metrics = Kit_obs.Metrics
module Tracer = Kit_obs.Tracer

type sabotage = {
  kill_after : (int * int) list;
  hang_after : (int * int) list;
  poison : int list;
}

type config = {
  procs : int;
  heartbeat_s : float;
  max_respawns : int;
  backoff_base_ms : float;
  sabotage : sabotage;
}

let default_config =
  { procs = 4; heartbeat_s = 30.0; max_respawns = 3; backoff_base_ms = 5.0;
    sabotage = { kill_after = []; hang_after = []; poison = [] } }

type stats = {
  spawns : int;
  deaths : int;
  respawns : int;
  resharded : int;
  heartbeat_timeouts : int;
  poisoned : int;
  stolen : int;
}

exception
  Aborted of {
    unfinished : (int * Testcase.t) list;
    stats : stats;
  }

(* -- wire messages ------------------------------------------------------- *)

type hello = Hello of { h_slot : int; h_sab : sabotage }

type job_msg =
  | Context of {
      c_tenant : int;
      c_label : string;
      c_options : Campaign.options;
      c_corpus : Program.t array;
    }
  | Job of { j_tenant : int; j_id : int; j_tc : Testcase.t }
  | Retire of int
  | Quit

type res_msg =
  | Done of {
      d_tenant : int;
      d_id : int;
      d_result : Campaign.case_result;
      d_execs : int;                     (* execs delta *)
    }

(* Both ends run the same executable image, so sender and receiver agree
   on each frame's type, and every value sent is plain data. *)
let encode v = Marshal.to_string v [ Marshal.No_sharing ]

(* A payload decodes only if it is exactly one value: the decoder must
   not read past it, nor leave bytes of it unread. *)
let decode payload =
  try
    if Marshal.total_size (Bytes.unsafe_of_string payload) 0 = String.length payload
    then Wire.Frame (Marshal.from_string payload 0)
    else Wire.Bad "undecodable frame"
  with Failure _ | Invalid_argument _ -> Wire.Bad "undecodable frame"

let take ib =
  match Wire.take ib with
  | Wire.Frame payload -> decode payload
  | Wire.Short -> Wire.Short
  | Wire.Bad why -> Wire.Bad why

let worker_env_var = "KIT_POOL_WORKER"

(* -- worker (child) side -------------------------------------------------- *)

let kill_self () =
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  (* SIGKILL is not deliverable-to-self-synchronously on every kernel
     before the next scheduling point; never fall through into the
     parent's code path. *)
  Unix._exit 70

(* One supervised execution environment per registered tenant: each
   tenant is its own campaign with its own options, corpus and
   supervisor, so their fault schedules and quarantine counters never
   bleed into each other. Sabotage counts completed cases across
   tenants — it models the worker process dying, not a campaign. *)
type child_env = {
  e_label : string;
  e_options : Campaign.options;
  e_corpus : Program.t array;
  e_sup : Supervisor.t;
}

(* [inbox] holds what the read that brought [Hello] read past it. *)
let child_main ~slot ~(sab : sabotage) rx inbox tx =
  let code = ref 0 in
  (try
     let obs = Obs.create () in
     let envs : (int, child_env) Hashtbl.t = Hashtbl.create 4 in
     let kill_at = List.assoc_opt slot sab.kill_after in
     let hang_at = List.assoc_opt slot sab.hang_after in
     let completed = ref 0 in
     let out = Buffer.create 256 in
     let rec loop () =
       match (take inbox : job_msg Wire.next) with
       | Wire.Short -> if Wire.fill rx inbox then loop ()
       | Wire.Bad _ -> code := 70
       | Wire.Frame Quit -> ()
       | Wire.Frame (Context { c_tenant; c_label; c_options; c_corpus }) ->
         Hashtbl.replace envs c_tenant
           { e_label = c_label; e_options = c_options; e_corpus = c_corpus;
             e_sup = Campaign.supervisor ~obs c_options };
         loop ()
       | Wire.Frame (Retire tenant) ->
         Hashtbl.remove envs tenant;
         loop ()
       | Wire.Frame (Job { j_tenant; j_id; j_tc }) ->
         (match kill_at with
          | Some n when !completed >= n -> kill_self ()
          | Some _ | None -> ());
         (match hang_at with
          | Some n when !completed >= n ->
            while true do Unix.sleepf 3600.0 done
          | Some _ | None -> ());
         if List.mem j_id sab.poison then kill_self ();
         (match Hashtbl.find_opt envs j_tenant with
          | None ->
            (* A job for a tenant we never heard of is a protocol bug;
               die loudly rather than fabricate a result. *)
            Unix._exit 70
          | Some env ->
            let e0 = Supervisor.executions env.e_sup in
            let attrs =
              [ ("case", string_of_int j_id); ("proc", string_of_int slot) ]
              @ (if env.e_label = "" then []
                 else [ ("tenant", env.e_label) ])
            in
            let r =
              Campaign.exec_case ~attrs env.e_options env.e_corpus env.e_sup
                j_tc
            in
            (* Reported before the next case starts: the parent blames a
               death on the oldest case it has no result for. *)
            Wire.add_frame out
              (encode
                 (Done
                    { d_tenant = j_tenant; d_id = j_id; d_result = r;
                      d_execs = Supervisor.executions env.e_sup - e0 }));
            Wire.flush tx out;
            incr completed;
            loop ())
     in
     loop ()
   with
   | Supervisor.Gave_up _ -> code := 71
   | _ -> code := 70);
  Unix._exit !code

(* On Unix a [file_descr] is the integer, which is what lets the pipe
   ends cross the exec boundary as text in the environment. *)
let fd_of_int (n : int) : Unix.file_descr = Obj.magic n
let int_of_fd (fd : Unix.file_descr) : int = Obj.magic fd

let worker_entry () =
  match Sys.getenv_opt worker_env_var with
  | None -> ()
  | Some spec ->
    let rx, tx =
      match String.split_on_char ':' spec with
      | [ jr; rw ] -> (
        match (int_of_string_opt jr, int_of_string_opt rw) with
        | Some jr, Some rw -> (fd_of_int jr, fd_of_int rw)
        | _ -> Unix._exit 70)
      | _ -> Unix._exit 70
    in
    let inbox = Wire.inbox () in
    let rec hello () =
      match (take inbox : hello Wire.next) with
      | Wire.Short -> if Wire.fill rx inbox then hello ()
      | Wire.Frame (Hello { h_slot; h_sab }) ->
        child_main ~slot:h_slot ~sab:h_sab rx inbox tx
      | Wire.Bad _ -> ()
    in
    hello ();
    (* Only reachable on a missing or undecodable Hello. *)
    Unix._exit 70

(* -- parent side: the persistent pool core -------------------------------- *)

(* The most cases a worker holds at once. A constant, not a knob: 16
   frames each way amortise the pipe writes and select turns a case
   used to cost, its [Done] frames fit the result pipe with room to
   spare (see the header), and a death re-queues at most 15 cases that
   were not to blame. *)
let depth = 16

type worker = {
  slot : int;
  mutable pid : int;
  mutable tx : Unix.file_descr;          (* job pipe, write end *)
  mutable rx : Unix.file_descr;          (* result pipe, read end *)
  mutable alive : bool;
  mutable flight : (int * int) list;     (* (tenant, id), oldest first *)
  mutable unsent : int;                  (* its newest, still in [out] *)
  mutable deadline : float;              (* its oldest's; infinity: none *)
  out : Buffer.t;                        (* job frames queued for [tx] *)
  mutable inbox : Wire.inbox;            (* bytes read from [rx] *)
  mutable respawns_left : int;
  mutable backoff_s : float;
  mutable span : Tracer.span option;
}

type event =
  | Job_done of {
      ev_slot : int;
      ev_tenant : int;
      ev_id : int;
      ev_result : Campaign.case_result;
      ev_execs : int;
    }
  | Worker_lost of {
      ev_slot : int;
      ev_why : string;
      ev_in_flight : (int * int) option; (* oldest unreported, after draining *)
      ev_respawned : bool;
    }

type t = {
  workers : worker array;
  cfg : config;
  obs : Obs.t;
  (* Registered campaign contexts, re-sent to every respawned worker so
     an incarnation can pick up any tenant's jobs. *)
  contexts : (int, string * Campaign.options * Program.t array) Hashtbl.t;
  mutable pending : event list;          (* reverse order *)
  mutable spawns : int;
  mutable deaths : int;
  mutable respawns : int;
  mutable hb_timeouts : int;
  mutable sigpipe_prev : Sys.signal_behavior option;
}

let pc name t = Metrics.counter ~always:true t.obs.Obs.metrics ("pool." ^ name)

let status_to_string = function
  | Unix.WEXITED 71 -> "worker gave up (permanent infrastructure fault)"
  | Unix.WEXITED n -> Printf.sprintf "worker exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %d" n

(* The heartbeat clock of the oldest case in flight starts when its
   frame is written or when the case before it is read as done,
   whichever is later; with nothing written, no clock runs. *)
let restart_clock t (w : worker) now =
  w.deadline <-
    (if List.length w.flight > w.unsent then now +. t.cfg.heartbeat_s
     else Float.infinity)

(* Write the worker's queued frames in one go. A write to a dying
   worker raises EPIPE; the death is picked up through EOF/waitpid and
   its flight re-queued. *)
let flush t (w : worker) =
  if Buffer.length w.out > 0 then begin
    (try Wire.flush w.tx w.out with Unix.Unix_error _ | Sys_error _ -> ());
    let waiting = w.deadline = Float.infinity in
    w.unsent <- 0;
    if waiting then restart_clock t w (Unix.gettimeofday ())
  end

let queue (w : worker) (msg : job_msg) = Wire.add_frame w.out (encode msg)

(* A control frame goes out at once, behind the jobs queued before it. *)
let send t w msg = queue w msg; flush t w

(* The context frame replaces the address space a fork would have
   copied. The options are plain data once the obs bundle is dropped —
   it is unmarshalable and private anyway; the worker builds its own. *)
let context tenant (label, options, corpus) =
  Context
    { c_tenant = tenant; c_label = label;
      c_options = { options with Campaign.obs = None }; c_corpus = corpus }

let spawn t w =
  (* Kill/hang sabotage is a one-shot event schedule: the slot's entry
     fires in the first incarnation only, so a respawned worker is not
     doomed to die every N cases forever. (Poison deliberately re-fires
     — that is the twice-lethal path.) *)
  let sab =
    if w.pid = -1 then t.cfg.sabotage
    else
      { t.cfg.sabotage with
        kill_after =
          List.filter (fun (s, _) -> s <> w.slot) t.cfg.sabotage.kill_after;
        hang_after =
          List.filter (fun (s, _) -> s <> w.slot) t.cfg.sabotage.hang_after }
  in
  (* The parent-side ends are close-on-exec; the child-side ends cross
     the exec by number via the environment and are closed here right
     after the (sequential) spawn — so no sibling spawned later can
     inherit this worker's result-pipe write end, and EOF detection
     stays sound. *)
  let jr, jw = Unix.pipe () in
  let rr, rw = Unix.pipe () in
  Unix.set_close_on_exec jw;
  Unix.set_close_on_exec rr;
  let env =
    Array.append
      (Array.to_seq (Unix.environment ())
      |> Seq.filter (fun kv ->
             not (String.length kv > String.length worker_env_var
                  && String.sub kv 0 (String.length worker_env_var + 1)
                     = worker_env_var ^ "="))
      |> Array.of_seq)
      [| Printf.sprintf "%s=%d:%d" worker_env_var (int_of_fd jr)
           (int_of_fd rw) |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.close jr;
  Unix.close rw;
  w.pid <- pid;
  w.tx <- jw;
  w.rx <- rr;
  w.alive <- true;
  w.flight <- [];
  w.unsent <- 0;
  w.deadline <- Float.infinity;
  Buffer.clear w.out;
  w.inbox <- Wire.inbox ();
  (* Hello, then every registered tenant context in tenant order, in
     one write: a respawned worker can serve any tenant its predecessor
     could. *)
  Wire.add_frame w.out (encode (Hello { h_slot = w.slot; h_sab = sab }));
  Hashtbl.fold (fun tenant ctx acc -> (tenant, ctx) :: acc) t.contexts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (tenant, ctx) -> queue w (context tenant ctx));
  flush t w;
  w.span <-
    Some
      (Tracer.span t.obs.Obs.tracer
         ~attrs:[ ("proc", string_of_int w.slot); ("pid", string_of_int pid) ]
         "pool.worker");
  t.spawns <- t.spawns + 1;
  Metrics.inc (pc "spawns" t)

let create ?obs cfg =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let procs = max 1 cfg.procs in
  let workers =
    Array.init procs (fun slot ->
        { slot; pid = -1; tx = Unix.stdin; rx = Unix.stdin; alive = false;
          flight = []; unsent = 0; deadline = Float.infinity;
          out = Buffer.create 256; inbox = Wire.inbox ();
          respawns_left = max 0 cfg.max_respawns;
          backoff_s = Float.max 0.0 cfg.backoff_base_ms /. 1000.0;
          span = None })
  in
  (* The parent writes into job pipes of workers that may already be
     dead; without this a single EPIPE would kill the whole pool. *)
  let sigpipe_prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let t =
    { workers; cfg; obs; contexts = Hashtbl.create 4; pending = [];
      spawns = 0; deaths = 0; respawns = 0; hb_timeouts = 0; sigpipe_prev }
  in
  Array.iter (fun w -> spawn t w) workers;
  t

let retire t ~tenant =
  Hashtbl.remove t.contexts tenant;
  Array.iter (fun w -> if w.alive then send t w (Retire tenant)) t.workers

let alive_slots t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if w.alive then Some w.slot else None)

let has_room (w : worker) = w.alive && List.length w.flight < depth

let idle_slots t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if has_room w then Some w.slot else None)

let live_count t =
  Array.fold_left (fun acc w -> if w.alive then acc + 1 else acc) 0 t.workers

(* Queue a case on the slot; the next [poll] writes its frame. *)
let dispatch_job t ~slot ~tenant ~id tc =
  let w = t.workers.(slot) in
  if not (has_room w) then
    invalid_arg "Pool.dispatch_job: slot is dead or full";
  w.flight <- w.flight @ [ (tenant, id) ];
  w.unsent <- w.unsent + 1;
  queue w (Job { j_tenant = tenant; j_id = id; j_tc = tc })

let push t ev = t.pending <- ev :: t.pending

(* The worker reports its flight in order, so a result is for the
   oldest case, whose successor's clock starts now. *)
let record_done t (w : worker) now
    (Done { d_tenant; d_id; d_result; d_execs }) =
  (match w.flight with
   | oldest :: rest when oldest = (d_tenant, d_id) ->
     w.flight <- rest;
     restart_clock t w now
   | _ -> ());
  push t
    (Job_done
       { ev_slot = w.slot; ev_tenant = d_tenant; ev_id = d_id;
         ev_result = d_result; ev_execs = d_execs })

(* Take every complete frame the worker's inbox holds; [Some why] when
   one cannot be decoded, which leaves the stream unusable. *)
let rec take_frames t (w : worker) now =
  match (take w.inbox : res_msg Wire.next) with
  | Wire.Frame d ->
    record_done t w now d;
    take_frames t w now
  | Wire.Short -> None
  | Wire.Bad why -> Some why

(* A worker died (or was killed): decode its buffered results and read
   the rest to EOF — the kernel closed the dead worker's result-pipe
   write end, so the drain terminates — then close its pipes and
   respawn if budget remains, and report the oldest case still
   unreported, so the driver can count a strike on it and reshard the
   rest. *)
let handle_death t (w : worker) ~why =
  let rec drain () =
    match take_frames t w (Unix.gettimeofday ()) with
    | Some _ -> ()
    | None -> (
      match Wire.fill w.rx w.inbox with
      | true -> drain ()
      | false | (exception Unix.Unix_error _) -> ())
  in
  drain ();
  (try Unix.close w.rx with Unix.Unix_error _ -> ());
  (try Unix.close w.tx with Unix.Unix_error _ -> ());
  Option.iter (Tracer.finish t.obs.Obs.tracer) w.span;
  w.span <- None;
  w.alive <- false;
  t.deaths <- t.deaths + 1;
  Metrics.inc (pc "deaths" t);
  Tracer.instant t.obs.Obs.tracer
    ~attrs:[ ("proc", string_of_int w.slot); ("why", why) ]
    "pool.death";
  let in_flight = match w.flight with oldest :: _ -> Some oldest | [] -> None in
  w.flight <- [];
  let respawned =
    if w.respawns_left > 0 then begin
      w.respawns_left <- w.respawns_left - 1;
      Unix.sleepf w.backoff_s;
      w.backoff_s <- w.backoff_s *. 2.0;
      t.respawns <- t.respawns + 1;
      Metrics.inc (pc "respawns" t);
      spawn t w;
      true
    end
    else false
  in
  push t
    (Worker_lost
       { ev_slot = w.slot; ev_why = why; ev_in_flight = in_flight;
         ev_respawned = respawned })

let reap t (w : worker) =
  if w.alive then
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ -> ()
    | _, status -> handle_death t w ~why:(status_to_string status)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      handle_death t w ~why:"worker vanished (no child to reap)"

let overdue now (w : worker) = w.alive && now > w.deadline

let kill_worker (w : worker) =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

let kill_overdue t now (w : worker) =
  if overdue now w then begin
    t.hb_timeouts <- t.hb_timeouts + 1;
    Metrics.inc (pc "heartbeat_timeouts" t);
    kill_worker w;
    handle_death t w
      ~why:(Printf.sprintf "heartbeat timeout after %.1fs" t.cfg.heartbeat_s)
  end

(* One read from a worker whose result pipe is readable, and every
   result it completed: results, or the EOF of its death. *)
let read_frames t (w : worker) =
  match Wire.fill w.rx w.inbox with
  | true -> (
    match take_frames t w (Unix.gettimeofday ()) with
    | None -> ()
    | Some why ->
      (* The stream cannot be re-synchronised past a bad frame; treat
         it as worker death. *)
      kill_worker w;
      handle_death t w ~why:("bad frame from worker: " ^ why))
  | false ->
    let why =
      match Unix.waitpid [] w.pid with
      | _, status -> status_to_string status
      | exception Unix.Unix_error _ -> "worker closed its pipe"
    in
    handle_death t w ~why

(* Select on [fds] and read from every readable worker; returns the
   readable descriptors that are no worker's. *)
let read_ready t fds timeout =
  match Unix.select fds [] [] timeout with
  | readable, _, _ ->
    List.filter
      (fun fd ->
        match
          Array.find_opt (fun (w : worker) -> w.alive && w.rx == fd) t.workers
        with
        | Some w -> read_frames t w; false
        | None -> true)
      readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let poll ?(extra = []) t ~timeout =
  Array.iter (fun (w : worker) -> if w.alive then flush t w) t.workers;
  let now = Unix.gettimeofday () in
  (* A result that reached its pipe while the coordinator was away
     clears its case before the deadline is judged. *)
  (match List.filter (overdue now) (Array.to_list t.workers) with
   | [] -> ()
   | late ->
     ignore
       (read_ready t (List.map (fun (w : worker) -> w.rx) late) 0.0
         : Unix.file_descr list));
  Array.iter (kill_overdue t now) t.workers;
  Array.iter (reap t) t.workers;
  let alive =
    Array.to_list t.workers |> List.filter (fun (w : worker) -> w.alive)
  in
  let fds = List.map (fun (w : worker) -> w.rx) alive @ extra in
  let ready_extra =
    if fds = [] then []
    else
      (* Wake at the earliest heartbeat deadline; cap the idle tick so
         exits with no pipe traffic (pure SIGKILL) are still reaped
         promptly via waitpid. *)
      read_ready t fds
        (if t.pending <> [] then 0.0
         else
           List.fold_left
             (fun acc (w : worker) -> Float.min acc (w.deadline -. now))
             timeout alive
           |> Float.max 0.01)
  in
  let events = List.rev t.pending in
  t.pending <- [];
  (events, ready_extra)

let shutdown t =
  Array.iter
    (fun (w : worker) ->
      if w.alive then begin
        (* Jobs not yet written are dropped, not run. *)
        Buffer.clear w.out;
        send t w Quit;
        (try Unix.close w.tx with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        (try Unix.close w.rx with Unix.Unix_error _ -> ());
        Option.iter (Tracer.finish t.obs.Obs.tracer) w.span;
        w.span <- None;
        w.alive <- false
      end)
    t.workers;
  Option.iter (fun b -> ignore (Sys.signal Sys.sigpipe b)) t.sigpipe_prev;
  t.sigpipe_prev <- None

type core_stats = {
  c_spawns : int;
  c_deaths : int;
  c_respawns : int;
  c_heartbeat_timeouts : int;
}

let core_stats t =
  { c_spawns = t.spawns; c_deaths = t.deaths; c_respawns = t.respawns;
    c_heartbeat_timeouts = t.hb_timeouts }

(* -- the job policy ---------------------------------------------------------

   One campaign's cases on the pool, whichever driver feeds it: the
   queue (job id = the campaign's case index) and the strike counts of
   the two-strike rule. Cases are dealt by receiver, as [--domains]
   deals them, so each receiver's baseline and mask are computed on one
   worker; a worker that runs dry steals a whole receiver group. A case
   is reported once, by its first completion or by its quarantine,
   which completes its job too; a completion resets the case's
   strikes. *)

type jobs = {
  j_tenant : int;
  j_corpus : Program.t array;
  j_q : (Testcase.t, unit) Jobqueue.t;
  j_strikes : (int, int) Hashtbl.t;      (* consecutive kills per case *)
  j_on_done : int -> Campaign.case_result -> int -> unit;
  mutable j_poisoned : int;
}

let receiver (tc : Testcase.t) = tc.Testcase.receiver

(* Assign [cases] to the slots [to_], whole receiver groups to the
   least-loaded slot. *)
let deal q cases ~to_ =
  let slots = Array.of_list to_ in
  Array.iteri
    (fun i slice ->
      if slice <> [] then Jobqueue.deal q slice ~to_:[ slots.(i) ])
    (Campaign.deal ~key:receiver (Array.length slots) cases)

let jobs t ~tenant ~label options corpus cases ~on_done =
  Hashtbl.replace t.contexts tenant (label, options, corpus);
  Array.iter
    (fun w ->
      if w.alive then send t w (context tenant (label, options, corpus)))
    t.workers;
  let q = Jobqueue.create ~group:receiver () in
  List.iter (fun (case, tc) -> Jobqueue.submit_as q ~id:case tc) cases;
  (* With no live slot the cases stay queued for the driver's all-dead
     check. *)
  (match alive_slots t with [] -> () | slots -> deal q cases ~to_:slots);
  { j_tenant = tenant; j_corpus = corpus; j_q = q; j_strikes = Hashtbl.create 16;
    j_on_done = on_done; j_poisoned = 0 }

let drained j = Jobqueue.is_drained j.j_q

(* Work a slot could start now: a case dealt to some slot and not yet
   dispatched. *)
let claimable j = Jobqueue.assigned_count j.j_q > 0

let dispatch t j ~slot =
  has_room t.workers.(slot)
  &&
  let next =
    match Jobqueue.claim_next j.j_q ~worker:slot with
    | Some _ as job -> job
    | None ->
      let stolen = Jobqueue.stolen j.j_q in
      let job = Jobqueue.steal j.j_q ~thief:slot in
      Metrics.add (pc "stolen" t) (Jobqueue.stolen j.j_q - stolen);
      job
  in
  match next with
  | None -> false
  | Some (id, tc) ->
    dispatch_job t ~slot ~tenant:j.j_tenant ~id tc;
    true

let unreported j id = Jobqueue.mem j.j_q id && Jobqueue.result j.j_q id = None

let report j id r execs =
  Jobqueue.complete j.j_q id ();
  Hashtbl.remove j.j_strikes id;
  j.j_on_done id r execs

let handle t j = function
  | Job_done { ev_tenant; ev_id; ev_result; ev_execs; _ } ->
    if ev_tenant = j.j_tenant && unreported j ev_id then
      report j ev_id ev_result ev_execs
  | Worker_lost { ev_slot; ev_why; ev_in_flight; _ } ->
    (* Two strikes: a case that killed two workers in a row is poison —
       quarantine it as a first-class crash report instead of feeding it
       to a third worker. Only the oldest unreported case was running;
       the rest of the flight goes back without a strike. *)
    (match ev_in_flight with
     | Some (tenant, id) when tenant = j.j_tenant && unreported j id ->
       let strikes =
         1 + Option.value ~default:0 (Hashtbl.find_opt j.j_strikes id)
       in
       if strikes < 2 then Hashtbl.replace j.j_strikes id strikes
       else begin
         j.j_poisoned <- j.j_poisoned + 1;
         Metrics.inc (pc "poisoned" t);
         report j id
           (Campaign.lost_case_result ~attempts:strikes j.j_corpus
              ~why:
                (Printf.sprintf "case killed %d workers in a row; last: %s"
                   strikes ev_why)
              (Jobqueue.payload j.j_q id))
           0
       end
     | Some _ | None -> ());
    (* Reshard the dead slot's queue; with no survivors the jobs stay
       queued for the driver's all-dead check. *)
    match (Jobqueue.release j.j_q ~worker:ev_slot, alive_slots t) with
    | [], _ -> ()
    | orphans, survivors ->
      Metrics.add (pc "resharded" t) (List.length orphans);
      if survivors <> [] then deal j.j_q orphans ~to_:survivors

(* -- the single-campaign executor ----------------------------------------- *)

let execute ?obs cfg options corpus cases ~on_done =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let procs = max 1 cfg.procs in
  let t = create ~obs { cfg with procs } in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      Tracer.with_span obs.Obs.tracer
        ~attrs:[ ("procs", string_of_int procs) ]
        "pool.execute"
        (fun () ->
          let j = jobs t ~tenant:0 ~label:"" options corpus cases ~on_done in
          let stats () =
            let c = core_stats t in
            { spawns = c.c_spawns; deaths = c.c_deaths;
              respawns = c.c_respawns; resharded = Jobqueue.resharded j.j_q;
              heartbeat_timeouts = c.c_heartbeat_timeouts;
              poisoned = j.j_poisoned; stolen = Jobqueue.stolen j.j_q }
          in
          while not (drained j) do
            if live_count t = 0 then
              raise
                (Aborted
                   { unfinished = Jobqueue.unfinished j.j_q; stats = stats () });
            List.iter
              (fun slot -> while dispatch t j ~slot do () done)
              (idle_slots t);
            let events, _ = poll t ~timeout:0.2 in
            List.iter (handle t j) events
          done;
          stats ()))

let executor ?obs ?on_stats cfg : Campaign.executor =
 fun options corpus _sup ~batch:_ cases ~on_done ->
  let stats = execute ?obs cfg options corpus cases ~on_done in
  Option.iter (fun f -> f stats) on_stats
