(* The deterministic fault-injection plane.

   Real KIT executors routinely panic or hang when a generated program
   crashes the kernel under test; the model kernel cannot crash by
   accident, so this plane makes it crash on purpose, from a schedule
   derived deterministically from the campaign seed. Armed faults fire
   at well-defined points — syscall entry, boot, snapshot restore — and
   are either transient (wear off after k occurrences) or permanent.
   The supervised runtime in Kit_exec recovers from the former and
   quarantines test cases hitting the latter. *)

module Sysno = Kit_abi.Sysno

type persistence = Transient of int | Permanent

type fault =
  | Panic_on of Sysno.t
  | Hang_on of Sysno.t
  | Boot_failure
  | Snapshot_corruption

type arming = { fault : fault; persistence : persistence }

type schedule = arming list

type panic_info = {
  panic_sysno : Sysno.t;
  occurrence : int;
  message : string;
}

exception Kernel_panic of panic_info
exception Fuel_exhausted
exception Boot_failed
exception Snapshot_corrupt

(* One armed fault: [left] counts down remaining firings (-1 = forever),
   [fired] counts up for occurrence reporting. *)
type entry = {
  e_fault : fault;
  mutable left : int;
  mutable fired : int;
}

type counters = {
  panics : int;
  hangs : int;
  fuel_exhaustions : int;
  boot_failures : int;
  snapshot_corruptions : int;
  executions : int;
}

type t = {
  entries : entry list;
  sys_panics : (Sysno.t, entry) Hashtbl.t;
  sys_hangs : (Sysno.t, entry) Hashtbl.t;
  boots : entry list;
  restores : entry list;
  has_sys_faults : bool;
  mutable fuel_limit : int option;
  mutable fuel : int;
  mutable steps : int;              (* syscalls charged this execution *)
  mutable c_panics : int;
  mutable c_hangs : int;
  mutable c_fuel : int;
  mutable c_boots : int;
  mutable c_restores : int;
  mutable c_execs : int;
}

let entry_of_arming a =
  let left = match a.persistence with Transient k -> max 0 k | Permanent -> -1 in
  { e_fault = a.fault; left; fired = 0 }

let of_schedule sched =
  let entries = List.map entry_of_arming sched in
  let sys_panics = Hashtbl.create 8 and sys_hangs = Hashtbl.create 8 in
  let boots = ref [] and restores = ref [] in
  List.iter
    (fun e ->
      match e.e_fault with
      | Panic_on s -> Hashtbl.add sys_panics s e
      | Hang_on s -> Hashtbl.add sys_hangs s e
      | Boot_failure -> boots := e :: !boots
      | Snapshot_corruption -> restores := e :: !restores)
    entries;
  {
    entries;
    sys_panics;
    sys_hangs;
    boots = List.rev !boots;
    restores = List.rev !restores;
    has_sys_faults = Hashtbl.length sys_panics > 0 || Hashtbl.length sys_hangs > 0;
    fuel_limit = None;
    fuel = max_int;
    steps = 0;
    c_panics = 0;
    c_hangs = 0;
    c_fuel = 0;
    c_boots = 0;
    c_restores = 0;
    c_execs = 0;
  }

let none () = of_schedule []

let persistence_of_entry e =
  if e.left < 0 then Permanent else Transient e.left

let schedule t =
  List.filter_map
    (fun e ->
      if e.left = 0 then None
      else Some { fault = e.e_fault; persistence = persistence_of_entry e })
    t.entries

(* An entry is active while it has firings left; firing consumes one. *)
let active e = e.left <> 0

let fire e =
  if e.left > 0 then e.left <- e.left - 1;
  e.fired <- e.fired + 1

let find_active tbl sysno =
  List.find_opt active (Hashtbl.find_all tbl sysno)

(* -- fuel ---------------------------------------------------------------- *)

let set_fuel_limit t limit =
  t.fuel_limit <- limit;
  t.fuel <- (match limit with Some n -> n | None -> max_int)

let begin_execution t =
  t.c_execs <- t.c_execs + 1;
  t.steps <- 0;
  t.fuel <- (match t.fuel_limit with Some n -> n | None -> max_int)

let steps t = t.steps

(* A run replayed instead of executed pays its syscalls' fuel in one
   go, or runs for real when the tank cannot hold them: the syscall
   that overflows it then raises exactly where it always did. Without a
   limit the tank holds [max_int] and is only read once refilled. *)
let charge t n =
  t.fuel >= n
  && begin
    t.fuel <- t.fuel - n;
    t.steps <- t.steps + n;
    true
  end

(* -- hooks --------------------------------------------------------------- *)

let on_syscall t sysno =
  t.steps <- t.steps + 1;
  (match t.fuel_limit with
  | None -> ()
  | Some _ ->
    t.fuel <- t.fuel - 1;
    if t.fuel < 0 then begin
      t.c_fuel <- t.c_fuel + 1;
      raise Fuel_exhausted
    end);
  if t.has_sys_faults then begin
    (match find_active t.sys_panics sysno with
    | Some e ->
      fire e;
      t.c_panics <- t.c_panics + 1;
      raise
        (Kernel_panic
           {
             panic_sysno = sysno;
             occurrence = e.fired;
             message =
               Printf.sprintf "kernel BUG at sys_%s (occurrence %d)"
                 (Sysno.to_string sysno) e.fired;
           })
    | None -> ());
    match find_active t.sys_hangs sysno with
    | Some e ->
      (* The syscall spins: burn the whole budget. With no budget armed
         this still trips — the watchdog of an unsupervised executor. *)
      fire e;
      t.c_hangs <- t.c_hangs + 1;
      t.c_fuel <- t.c_fuel + 1;
      t.fuel <- 0;
      raise Fuel_exhausted
    | None -> ()
  end

let on_boot t =
  match List.find_opt active t.boots with
  | Some e ->
    fire e;
    t.c_boots <- t.c_boots + 1;
    raise Boot_failed
  | None -> ()

let on_restore t =
  match List.find_opt active t.restores with
  | Some e ->
    fire e;
    t.c_restores <- t.c_restores + 1;
    raise Snapshot_corrupt
  | None -> ()

(* -- deterministic schedule generation ----------------------------------- *)

(* A small splitmix-style generator so schedules depend only on the
   seed, not on any global RNG state. *)
let mix state =
  let z = ref Int64.(add !state 0x9E3779B97F4A7C15L) in
  state := !z;
  z := Int64.(mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L);
  z := Int64.(mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL);
  (* [to_int] keeps the low 63 bits, so the top bit of the shifted value
     can still land in the native sign bit — mask it off. *)
  Int64.to_int (Int64.logxor !z (Int64.shift_right_logical !z 31)) land max_int

(* A boot that fails more often than the supervisor's reboot budget (8
   by default) gives up, so boot draws are clamped to that total and a
   boot draw with nothing left is dropped. Clamping consumes no extra
   draws: every other arming is the one the seed would give anyway. *)
let max_boot_failures = 8

let schedule_of_seed ~seed ~intensity =
  let state = ref (Int64.of_int (seed lxor 0x6b17)) in
  let pick n = mix state mod max 1 n in
  let sysnos = Array.of_list Sysno.all in
  let boots = ref 0 in
  List.init (max 0 intensity) (fun _ ->
      let k = 1 + pick 3 in
      let arm fault k = Some { fault; persistence = Transient k } in
      match pick 100 with
      | r when r < 40 -> arm (Panic_on sysnos.(pick (Array.length sysnos))) k
      | r when r < 70 -> arm (Hang_on sysnos.(pick (Array.length sysnos))) k
      | r when r < 85 ->
        let k = min k (max_boot_failures - !boots) in
        boots := !boots + k;
        if k > 0 then arm Boot_failure k else None
      | _ -> arm Snapshot_corruption k)
  |> List.filter_map Fun.id

(* -- textual schedule format --------------------------------------------- *)

let persistence_to_string = function
  | Permanent -> "perm"
  | Transient k -> string_of_int k

let arming_to_string a =
  match a.fault with
  | Panic_on s ->
    Printf.sprintf "panic:%s:%s" (Sysno.to_string s)
      (persistence_to_string a.persistence)
  | Hang_on s ->
    Printf.sprintf "hang:%s:%s" (Sysno.to_string s)
      (persistence_to_string a.persistence)
  | Boot_failure -> Printf.sprintf "boot:%s" (persistence_to_string a.persistence)
  | Snapshot_corruption ->
    Printf.sprintf "snap:%s" (persistence_to_string a.persistence)

let schedule_to_string sched = String.concat "," (List.map arming_to_string sched)

let parse_persistence = function
  | "perm" | "inf" -> Ok Permanent
  | s -> (
    match int_of_string_opt s with
    | Some k when k > 0 -> Ok (Transient k)
    | Some _ | None -> Error (Printf.sprintf "bad occurrence count %S" s))

let parse_sysno s =
  match Sysno.of_string s with
  | Some sysno -> Ok sysno
  | None -> Error (Printf.sprintf "unknown syscall %S" s)

let parse_arming spec =
  let ( let* ) r f = Result.bind r f in
  match String.split_on_char ':' (String.trim spec) with
  | [ "panic"; s ] | [ "panic"; s; "1" ] ->
    let* sysno = parse_sysno s in
    Ok { fault = Panic_on sysno; persistence = Transient 1 }
  | [ "panic"; s; k ] ->
    let* sysno = parse_sysno s in
    let* p = parse_persistence k in
    Ok { fault = Panic_on sysno; persistence = p }
  | [ "hang"; s ] ->
    let* sysno = parse_sysno s in
    Ok { fault = Hang_on sysno; persistence = Transient 1 }
  | [ "hang"; s; k ] ->
    let* sysno = parse_sysno s in
    let* p = parse_persistence k in
    Ok { fault = Hang_on sysno; persistence = p }
  | [ "boot" ] -> Ok { fault = Boot_failure; persistence = Transient 1 }
  | [ "boot"; k ] ->
    let* p = parse_persistence k in
    Ok { fault = Boot_failure; persistence = p }
  | [ "snap" ] -> Ok { fault = Snapshot_corruption; persistence = Transient 1 }
  | [ "snap"; k ] ->
    let* p = parse_persistence k in
    Ok { fault = Snapshot_corruption; persistence = p }
  | _ -> Error (Printf.sprintf "cannot parse fault spec %S" spec)

let parse_schedule s =
  let specs =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun acc spec ->
      match (acc, parse_arming spec) with
      | Error _, _ -> acc
      | Ok _, Error e -> Error e
      | Ok l, Ok a -> Ok (a :: l))
    (Ok []) specs
  |> Result.map List.rev

(* -- observability -------------------------------------------------------- *)

let counters t =
  {
    panics = t.c_panics;
    hangs = t.c_hangs;
    fuel_exhaustions = t.c_fuel;
    boot_failures = t.c_boots;
    snapshot_corruptions = t.c_restores;
    executions = t.c_execs;
  }

(* Accounting only: the armed faults and their remaining firings stay
   as they are. *)
let absorb t c =
  t.c_panics <- t.c_panics + c.panics;
  t.c_hangs <- t.c_hangs + c.hangs;
  t.c_fuel <- t.c_fuel + c.fuel_exhaustions;
  t.c_boots <- t.c_boots + c.boot_failures;
  t.c_restores <- t.c_restores + c.snapshot_corruptions;
  t.c_execs <- t.c_execs + c.executions

let pp_panic_info ppf p =
  Fmt.pf ppf "panic in sys_%s: %s" (Sysno.to_string p.panic_sysno) p.message

let pp_counters ppf c =
  Fmt.pf ppf
    "%d panics, %d hangs, %d fuel exhaustions, %d boot failures, %d snapshot corruptions over %d executions"
    c.panics c.hangs c.fuel_exhaustions c.boot_failures c.snapshot_corruptions
    c.executions
