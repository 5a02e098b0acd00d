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
      parsing a string cannot.

    The pool moves many small [Marshal] frames each way, so it also
    batches them: {!add_frame} queues frames that one {!flush} writes,
    and an {!inbox} takes every frame one [read] brought in. *)

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
    bytes. Reads exactly one frame, so an {!inbox} can take over the
    stream after it. *)

(** {2 Batched frames} *)

val add_frame : Buffer.t -> 'a -> unit
(** Append the frame {!send} would write. *)

val flush : Unix.file_descr -> Buffer.t -> unit
(** Write every queued frame in one loop of writes, and empty the
    buffer (also when the write raises).
    @raise Unix.Unix_error as {!send_string}. *)

type inbox
(** Bytes read from one stream and not yet taken as frames. Its buffer
    is allocated by the first {!fill} and grows to fit the largest
    frame. *)

val inbox : unit -> inbox

val fill : Unix.file_descr -> inbox -> bool
(** Read what the stream has ready into the inbox, blocking until there
    is a byte: one [read], and more while each fills the room it was
    given and the stream holds more, so every frame wholly sent is
    wholly read. [false] at EOF. *)

type 'a next =
  | Frame of 'a       (** the oldest complete frame, now taken *)
  | Short             (** no complete frame yet: {!fill} again *)
  | Bad of string
      (** a negative or over-{!max_frame} length, or a payload that is
          not exactly one [Marshal] value: the stream cannot be
          re-synchronised *)

val take : inbox -> 'a next
(** Take the oldest complete frame, unmarshalled. *)
