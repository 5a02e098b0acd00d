(* Validated KITCKPT1 checkpoint I/O. See checkpoint.mli.

   On-disk layout:
     bytes 0..7    magic "KITCKPT1"
     byte  8       kind length k (single byte; kinds are short tags)
     bytes 9..9+k  kind
     8 bytes       payload length, big-endian
     16 bytes      MD5 digest of the payload
     n bytes       Marshal payload

   Everything before the payload is validated before a single Marshal
   byte is decoded, so a truncated, bit-flipped or mislabelled file is a
   typed error, never a crash inside the runtime's deserialiser. *)

let magic = "KITCKPT1"

type error =
  | Io of string
  | Not_checkpoint of string
  | Checkpoint_corrupt of string

let error_to_string = function
  | Io msg -> Printf.sprintf "checkpoint I/O error: %s" msg
  | Not_checkpoint msg -> Printf.sprintf "not a KITCKPT1 checkpoint: %s" msg
  | Checkpoint_corrupt msg -> Printf.sprintf "corrupt checkpoint: %s" msg

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
let save path ~kind v =
  if String.length kind = 0 || String.length kind > 255 then
    invalid_arg "Checkpoint.save: kind must be 1..255 bytes";
  let payload = Marshal.to_string v [ Marshal.No_sharing ] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_byte oc (String.length kind);
      output_string oc kind;
      let len = Bytes.create 8 in
      Bytes.set_int64_be len 0 (Int64.of_int (String.length payload));
      output_bytes oc len;
      output_string oc (Digest.string payload);
      output_string oc payload;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let read_exactly ic n =
  let buf = Bytes.create n in
  really_input ic buf 0 n;
  Bytes.unsafe_to_string buf

let load path ~kind =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          let got_magic =
            try read_exactly ic (String.length magic)
            with End_of_file -> ""
          in
          if got_magic <> magic then
            Error
              (Not_checkpoint
                 (Printf.sprintf "%s: bad magic (want %S)" path magic))
          else
            let kind_len = input_byte ic in
            let got_kind = read_exactly ic kind_len in
            if got_kind <> kind then
              Error
                (Checkpoint_corrupt
                   (Printf.sprintf "%s: kind is %S, expected %S" path got_kind
                      kind))
            else
              let len = Int64.to_int (String.get_int64_be (read_exactly ic 8) 0) in
              if len < 0 || len > 1 lsl 30 then
                Error
                  (Checkpoint_corrupt
                     (Printf.sprintf "%s: implausible payload length %d" path
                        len))
              else
                let digest = read_exactly ic 16 in
                let payload = read_exactly ic len in
                if Digest.string payload <> digest then
                  Error
                    (Checkpoint_corrupt
                       (Printf.sprintf "%s: payload digest mismatch" path))
                else Ok (Marshal.from_string payload 0)
        with
        | End_of_file ->
          Error (Checkpoint_corrupt (Printf.sprintf "%s: truncated" path))
        | Failure msg ->
          Error
            (Checkpoint_corrupt
               (Printf.sprintf "%s: undecodable payload (%s)" path msg)))
