(* Length-prefixed frames: raw strings, and Marshal values on top of
   them. See wire.mli. *)

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

let send fd v = send_string fd (Marshal.to_string v [ Marshal.No_sharing ])

let recv fd =
  match recv_string fd with
  | None -> None
  | Some payload -> (
    match Marshal.from_string payload 0 with
    | v -> Some v
    | exception Failure _ -> None)
