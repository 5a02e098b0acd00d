(* Length-prefixed frames: raw strings, and Marshal values on top of
   them, read one at a time or through an inbox. See wire.mli. *)

let max_frame = 16 * 1024 * 1024

exception Oversized of { announced : int; limit : int }

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n = Unix.write fd buf ofs len in
    write_all fd buf (ofs + n) (len - n)
  end

let send_string fd payload =
  let len = String.length payload in
  let frame = Bytes.create (8 + len) in
  Bytes.set_int64_be frame 0 (Int64.of_int len);
  Bytes.blit_string payload 0 frame 8 len;
  (* One write_all for header+payload: a frame is either fully queued or
     the exception surfaces before any payload byte is torn off. *)
  write_all fd frame 0 (8 + len)

(* Read exactly [len] bytes; [None] on EOF before the frame completes. *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let rec go ofs =
    if ofs = len then Some buf
    else
      match Unix.read fd buf ofs (len - ofs) with
      | 0 -> None
      | n -> go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
  in
  go 0

let recv_string fd =
  match read_exactly fd 8 with
  | None -> None
  | Some header ->
    let len = Int64.to_int (Bytes.get_int64_be header 0) in
    (* A negative length is stream garbage; a well-formed but huge
       announcement is a distinct, recoverable condition — the serve
       protocol rejects it with a clean reply instead of hanging up. *)
    if len > max_frame then raise (Oversized { announced = len; limit = max_frame })
    else if len < 0 then None
    else Option.map Bytes.unsafe_to_string (read_exactly fd len)

let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

let send fd v = send_string fd (marshal v)

let recv fd =
  match recv_string fd with
  | None -> None
  | Some payload -> (
    match Marshal.from_string payload 0 with
    | v -> Some v
    | exception Failure _ -> None)

(* -- batched frames ------------------------------------------------------- *)

let add_frame b v =
  let payload = marshal v in
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b payload

let flush fd b =
  if Buffer.length b > 0 then begin
    let s = Buffer.contents b in
    Buffer.clear b;
    write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)
  end

(* The bytes read but not yet taken are [buf.[lo..hi)]. The buffer
   starts empty and grows on the first fill, so a stream that never
   carries a frame costs nothing. *)
type inbox = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let inbox () = { buf = Bytes.empty; lo = 0; hi = 0 }

let min_read = 4096

(* Room for at least [n] bytes past [hi]: slide the pending bytes to the
   front, or move them into a buffer that fits them, at least doubled. *)
let reserve ib n =
  let pending = ib.hi - ib.lo in
  if Bytes.length ib.buf - ib.hi < n then begin
    let buf =
      if Bytes.length ib.buf >= pending + n then ib.buf
      else Bytes.create (max (pending + n) (2 * Bytes.length ib.buf))
    in
    Bytes.blit ib.buf ib.lo buf 0 pending;
    ib.buf <- buf;
    ib.lo <- 0;
    ib.hi <- pending
  end

(* The announced length of the frame at [lo], once its header is in. *)
let announced ib =
  if ib.hi - ib.lo < 8 then None
  else Some (Int64.to_int (Bytes.get_int64_be ib.buf ib.lo))

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* The most one [Unix.read] returns. *)
let max_read = 65536

let rec fill fd ib =
  reserve ib min_read;
  let len = min (Bytes.length ib.buf - ib.hi) max_read in
  match Unix.read fd ib.buf ib.hi len with
  | 0 -> false
  | n ->
    ib.hi <- ib.hi + n;
    (* A read that filled all it asked for may have left bytes behind:
       take those too, so every frame wholly sent is wholly read. *)
    if n = len && readable fd then fill fd ib else true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

type 'a next = Frame of 'a | Short | Bad of string

let take ib =
  match announced ib with
  | None -> Short
  | Some len when len < 0 -> Bad "negative frame length"
  | Some len when len > max_frame ->
    Bad (Printf.sprintf "frame of %d bytes announced (limit %d)" len max_frame)
  | Some len when ib.hi - ib.lo - 8 < len -> Short
  | Some len -> (
    (* Unmarshal in place, but only a value whose encoding is exactly
       the frame's payload: the decoder must not read into the next
       frame. *)
    let ofs = ib.lo + 8 in
    match
      if len < Marshal.header_size then None
      else if Marshal.total_size ib.buf ofs <> len then None
      else Some (Marshal.from_bytes ib.buf ofs)
    with
    | Some v ->
      ib.lo <- ofs + len;
      if ib.lo = ib.hi then begin ib.lo <- 0; ib.hi <- 0 end;
      Frame v
    | None | (exception Failure _) -> Bad "undecodable frame")
