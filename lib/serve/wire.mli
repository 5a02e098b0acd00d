(** Length-prefixed frames over file descriptors. Each frame is an
    8-byte big-endian payload length followed by the payload. Wire is
    framing only: a payload is a string, and what it encodes is the
    caller's business — the process pool's pipes carry [Marshal] bytes
    ({!Pool} encodes and decodes them), the [kit serve] socket carries
    JSON ({!Proto}).

    Every stream has one writer and one reader: {!add_frame} queues
    frames that one {!flush} writes, and an {!inbox} gathers what a
    stream has sent until {!take} finds a whole frame in it. A reader
    that {!fill}s only when [select] says the stream is readable never
    blocks: the daemon gathers a slow client's bytes between steps. *)

val max_frame : int
(** Sanity bound on a single frame (16 MiB). *)

val add_frame : Buffer.t -> string -> unit
(** Queue one frame holding the payload. *)

val flush : Unix.file_descr -> Buffer.t -> unit
(** Write every queued frame in one loop of writes, and empty the
    buffer (also when the write raises). Blocks until the stream has
    taken every byte.
    @raise Unix.Unix_error e.g. [EPIPE] when the peer is gone — callers
    treat it as peer death. *)

type inbox
(** Bytes read from one stream and not yet taken as frames, at most
    [8 + max_frame] of them. Its buffer is allocated by the first
    {!fill} and grows with what is read, to that size at most. *)

val inbox : unit -> inbox

val fill : Unix.file_descr -> inbox -> bool
(** Read what the stream has ready into the inbox, blocking until there
    is a byte: one [read], and more while each fills the room it was
    given and the stream holds more, so every frame wholly sent is
    wholly read. Nothing is read past [8 + max_frame] pending bytes or
    a bad header, where {!take} has a frame or {!Bad}: a peer that
    streams without pause holds a reader for one largest frame at
    most. [false] at EOF. *)

type 'a next =
  | Frame of 'a       (** the oldest complete frame, now taken *)
  | Short             (** no complete frame yet: {!fill} again *)
  | Bad of string
      (** a negative length, or one over {!max_frame} (the message names
          the announced length and the limit): the stream cannot be
          re-synchronised *)

val take : inbox -> string next
(** Take the oldest complete frame's payload. *)
