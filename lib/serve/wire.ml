(* Length-prefixed frames: one writer, one reader. See wire.mli. *)

let max_frame = 16 * 1024 * 1024

let add_frame b payload =
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b payload

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n = Unix.write fd buf ofs len in
    write_all fd buf (ofs + n) (len - n)
  end

let flush fd b =
  if Buffer.length b > 0 then begin
    let s = Buffer.contents b in
    Buffer.clear b;
    write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)
  end

(* The bytes read but not yet taken are [buf.[lo..hi)], at most
   [max_pending]: [take] finds a frame or a bad header in a full inbox,
   so no read goes past one. The buffer starts empty and grows with
   what is read, so a stream that carries no frame costs nothing. *)
type inbox = { mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let inbox () = { buf = Bytes.empty; lo = 0; hi = 0 }

let max_pending = 8 + max_frame

let min_read = 4096

(* The most one [Unix.read] returns. *)
let max_read = 65536

(* Room for [n] more bytes, where [pending + n <= max_pending]: slide the
   pending bytes to the front, or move them into a buffer that fits
   them, doubled up to [max_pending]. *)
let reserve ib n =
  let pending = ib.hi - ib.lo in
  if Bytes.length ib.buf - ib.hi < n then begin
    let buf =
      if Bytes.length ib.buf >= pending + n then ib.buf
      else
        Bytes.create
          (min max_pending (max (pending + n) (2 * Bytes.length ib.buf)))
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

let rec fill fd ib =
  let want = max_pending - (ib.hi - ib.lo) in
  match announced ib with
  | Some len when len < 0 || len > max_frame -> true
  | _ when want = 0 -> true
  | _ -> (
    reserve ib (min min_read want);
    let len = min (min (Bytes.length ib.buf - ib.hi) max_read) want in
    match Unix.read fd ib.buf ib.hi len with
    | 0 -> false
    | n ->
      ib.hi <- ib.hi + n;
      (* A read that filled all it asked for may have left bytes behind:
         take those too, so every frame wholly sent is wholly read. *)
      n < len || (not (readable fd)) || fill fd ib
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)

type 'a next = Frame of 'a | Short | Bad of string

let take ib =
  match announced ib with
  | None -> Short
  | Some len when len < 0 -> Bad "negative frame length"
  | Some len when len > max_frame ->
    Bad (Printf.sprintf "frame of %d bytes announced (limit %d)" len max_frame)
  | Some len when ib.hi - ib.lo - 8 < len -> Short
  | Some len ->
    let payload = Bytes.sub_string ib.buf (ib.lo + 8) len in
    ib.lo <- ib.lo + 8 + len;
    if ib.lo = ib.hi then begin ib.lo <- 0; ib.hi <- 0 end;
    Frame payload
