(* Validated KITCKPT1 checkpoint I/O. See checkpoint.mli.

   On-disk layout — a log: one header, then any number of records.
     bytes 0..7    magic "KITCKPT1"
     byte  8       kind length k (single byte; kinds are short tags)
     bytes 9..9+k  kind
   then per record:
     8 bytes       payload length, big-endian
     16 bytes      MD5 digest of the payload
     n bytes       payload

   Every record is length- and digest-checked before its payload is
   handed to anyone, so a truncated, bit-flipped or mislabelled file is
   a typed error, never a crash inside a decoder.

   The torn-tail rule: [append] is the only writer that can leave a
   partial record behind (everything else is temp file + rename), and
   it can only do so at the end of the file. So a bad record — one that
   is incomplete or fails its digest — is a torn tail when nothing valid
   follows it, and the reader drops it and reports how many bytes it
   dropped. A bad record with a valid record anywhere after it cannot
   come from a crash: that is corruption, and the whole file is
   rejected. *)

let magic = "KITCKPT1"

type error =
  | Io of string
  | Not_checkpoint of string
  | Checkpoint_corrupt of string

let error_to_string = function
  | Io msg -> Printf.sprintf "checkpoint I/O error: %s" msg
  | Not_checkpoint msg -> Printf.sprintf "not a KITCKPT1 checkpoint: %s" msg
  | Checkpoint_corrupt msg -> Printf.sprintf "corrupt checkpoint: %s" msg

(* Length field + digest in front of every payload. *)
let frame_overhead = 24

(* Payloads beyond this are implausible: a flipped high bit in a length
   field must read as damage, not as a 2^62-byte allocation. *)
let max_payload = 1 lsl 30

let frame payload =
  let b = Buffer.create (frame_overhead + String.length payload) in
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Make a rename in [dir] durable. Some filesystems refuse fsync on a
   directory; the renamed file's bytes are already on disk by then, so
   that is not an error. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Write the temp file, fsync it, rename it over [path], then fsync the
   directory: a crash at any point leaves either the previous [path] or
   the complete new one, never a renamed file whose bytes were lost. *)
let write path ~kind records =
  if String.length kind = 0 || String.length kind > 255 then
    invalid_arg "Checkpoint.write: kind must be 1..255 bytes";
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_byte oc (String.length kind);
      output_string oc kind;
      List.iter (fun r -> output_string oc (frame r)) records;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* One write of the whole framed record, then one fsync unless the
   caller defers it to a later [sync]. A crash midway leaves a torn tail
   the reader drops. A write that fails (ENOSPC, a short write followed
   by an error) is cut back off before the error propagates, so a later
   append can never land behind a partial record — which the reader
   would have to reject as corruption. *)
let append ?(fsync = true) path payload =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = Unix.lseek fd 0 Unix.SEEK_END in
      let s = Bytes.unsafe_of_string (frame payload) in
      let rec go off =
        if off < Bytes.length s then
          go (off + Unix.write fd s off (Bytes.length s - off))
      in
      (try go 0
       with e ->
         (try Unix.ftruncate fd size with Unix.Unix_error _ -> ());
         raise e);
      if fsync then Unix.fsync fd)

(* fsync works on the file, not the descriptor: this one makes every
   earlier append through another descriptor durable. *)
let sync path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

type log = {
  records : string list;
  torn : int;
}

(* The complete, digest-valid record at [pos] of [s]: its payload and
   end offset. *)
let record_at s pos =
  let len = String.length s in
  if len - pos < frame_overhead then None
  else
    let n = String.get_int64_be s pos in
    if Int64.compare n 0L < 0 || Int64.compare n (Int64.of_int max_payload) > 0
    then None
    else
      let n = Int64.to_int n in
      if n > len - pos - frame_overhead then None
      else
        let payload = String.sub s (pos + frame_overhead) n in
        if Digest.string payload <> String.sub s (pos + 8) 16 then None
        else Some (payload, pos + frame_overhead + n)

let rec valid_record_after s pos =
  pos < String.length s
  && (record_at s pos <> None || valid_record_after s (pos + 1))

let parse_log path ~kind s =
  let len = String.length s in
  let ml = String.length magic in
  if len < ml || String.sub s 0 ml <> magic then
    Error
      (Not_checkpoint (Printf.sprintf "%s: bad magic (want %S)" path magic))
  else if len = ml || len < ml + 1 + Char.code s.[ml] then
    Error (Checkpoint_corrupt (Printf.sprintf "%s: truncated header" path))
  else
    let kl = Char.code s.[ml] in
    let got_kind = String.sub s (ml + 1) kl in
    if got_kind <> kind then
      Error
        (Checkpoint_corrupt
           (Printf.sprintf "%s: kind is %S, expected %S" path got_kind kind))
    else
      let rec go pos acc =
        if pos = len then Ok { records = List.rev acc; torn = 0 }
        else
          match record_at s pos with
          | Some (payload, next) -> go next (payload :: acc)
          | None when valid_record_after s (pos + 1) ->
            Error
              (Checkpoint_corrupt
                 (Printf.sprintf
                    "%s: damaged record at byte %d with valid data after it"
                    path pos))
          | None -> Ok { records = List.rev acc; torn = len - pos }
      in
      go (ml + 1 + kl) []

let read path ~kind =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Io msg)
  | s -> parse_log path ~kind s
