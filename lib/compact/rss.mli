(** Resident-set gauges from [/proc/self/status], for kitbench.
    Best-effort: both return 0 where procfs is unavailable. *)

val peak_kb : unit -> int
(** VmHWM — the process's peak resident set, in kB. *)
