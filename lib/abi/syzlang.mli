(** A textual codec for test programs, in the spirit of Syzkaller's
    program format:

    {v
r0 = socket(1)
r1 = open("/proc/net/ptype")
r2 = read(r1)
    v}

    Lines starting with [#] are comments; blank lines are ignored; the
    ["rN = "] prefix is optional. A program prints in this format with
    [Program.to_string], and survives a print/parse round trip
    (property-tested). *)

exception Parse_error of string

val parse : string -> Program.t
(** @raise Parse_error on malformed input or unknown syscall names. *)
