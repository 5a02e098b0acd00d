(** Length-prefixed frames over file descriptors. Each frame is an
    8-byte big-endian payload length followed by the payload; reads are
    exact, so a closed or half-written stream surfaces as [None], never
    as a crash inside a decoder.

    Two payload encodings share the framing:
    - {!send}/{!recv} carry [Marshal] bytes — the process pool's pipes,
      whose two ends run the identical executable image (the workers
      re-execute it), so send and receive sites agree on the frame type
      and every value sent is plain data (no closure, no sharing);
    - {!send_string}/{!recv_string} carry raw strings — the [kit serve]
      socket, where the peer is any local process, so payloads are JSON
      and the receiver validates them ({!Proto.request_of_json}).
      Unmarshalling bytes from an untrusted peer can crash the process;
      parsing a string cannot. *)

val max_frame : int
(** Sanity bound on a single frame (16 MiB). *)

exception Oversized of { announced : int; limit : int }
(** A frame header announced a well-formed length beyond {!max_frame}.
    Distinct from the [None] corruption/EOF path so protocol servers can
    reject a too-large message with a clean reply; the pool treats it
    like peer death (the stream cannot be re-synchronised). *)

val send_string : Unix.file_descr -> string -> unit
(** Write one frame. Loops over partial writes.
    @raise Unix.Unix_error e.g. [EPIPE] when the peer is gone — callers
    treat it as peer death. *)

val recv_string : Unix.file_descr -> string option
(** Read one frame. [None] on EOF, truncation mid-frame or a negative
    length prefix.
    @raise Oversized on an over-{!max_frame} length announcement. *)

val send : Unix.file_descr -> 'a -> unit
(** {!send_string} of the value's [Marshal] bytes ([No_sharing]). *)

val recv : Unix.file_descr -> 'a option
(** {!recv_string}, unmarshalled; [None] also on undecodable payload
    bytes. *)
