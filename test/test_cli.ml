(* The contract of kit's campaign commands, driven through the built
   binary. The checkpoint: one log for every executor, deleted once the
   result is built, refused (exit 3, file untouched) when taken under
   other options. A run killed midway is a run whose log write hits the
   file-size limit: SIGXFSZ lands at a byte the test chooses, not at a
   time. The flags, the campaign's and the daemon's: a value out of range
   is a usage error. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The test runs in the build tree's test directory under dune runtest,
   and from the repository root under dune exec. *)
let kit =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "../bin/kit_cli.exe"; "_build/default/bin/kit_cli.exe" ]
     with
    | Some path -> path
    | None -> Alcotest.fail "bin/kit_cli.exe is not built")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* [kit args] in [dir], stdout and stderr captured; [limit] caps the
   size of any file it writes, in 512-byte blocks. *)
let kit_in dir ?limit args =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let cmd =
    Printf.sprintf "cd %s && %s exec %s %s > %s 2> %s"
      (Filename.quote dir)
      (match limit with
      | Some blocks -> Printf.sprintf "ulimit -f %d &&" blocks
      | None -> "")
      (Filename.quote (Filename.concat (Sys.getcwd ()) (Lazy.force kit)))
      (String.concat " " args) (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  (code, read_file out, read_file err)

let with_dir f =
  let dir = Filename.temp_file "kit-cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let race = [ "campaign"; "--corpus-size"; "96"; "--seed"; "3"; "--race-bugs" ]
let pool_log = [ "--procs"; "2"; "--checkpoint"; "p.ckpt"; "--checkpoint-every"; "8" ]

(* A --procs run killed midway, then resumed under --schedules 64: the
   log holds results searched at 1 schedule, so it is refused by name
   and left as it was. Resumed under its own options, it replays and
   gives the straight-through summary. *)
let test_resume_refuses_other_options () =
  with_dir (fun dir ->
      let ckpt = Filename.concat dir "p.ckpt" in
      let code, _, _ = kit_in dir ~limit:128 (race @ pool_log) in
      check_bool "the first run is killed" true (code <> 0 && code <> 1);
      let log = read_file ckpt in
      let code, _, err =
        kit_in dir (race @ pool_log @ [ "--schedules"; "64"; "--resume" ])
      in
      check_int "refused" 3 code;
      check_bool "the refusal names the option" true
        (contains ~sub:"schedules" err);
      check_bool "the file is left alone" true (read_file ckpt = log);
      let code, out, _ =
        kit_in dir (race @ pool_log @ [ "--resume"; "--summary"; "resumed.txt" ])
      in
      check_int "resumed run finds reports" 1 code;
      check_bool "the resume says how far the log got" true
        (contains ~sub:"resuming from p.ckpt: " out
        && not (contains ~sub:"resuming from p.ckpt: 0/" out));
      let _ = kit_in dir (race @ [ "--summary"; "straight.txt" ]) in
      check_string "resumed = straight through"
        (read_file (Filename.concat dir "straight.txt"))
        (read_file (Filename.concat dir "resumed.txt"));
      check_bool "the file is deleted once the result is built" false
        (Sys.file_exists ckpt))

(* A finished run deletes its log, whichever executor ran it; so a
   later --schedules 64 --resume has nothing to replay and searches
   every case. *)
let test_finished_run_deletes_its_log () =
  with_dir (fun dir ->
      List.iter
        (fun executor ->
          let code, _, _ =
            kit_in dir
              (race @ executor
              @ [ "--checkpoint"; "p.ckpt"; "--checkpoint-every"; "8" ])
          in
          check_int "finished" 1 code;
          check_bool "no log left behind" false
            (Sys.file_exists (Filename.concat dir "p.ckpt")))
        [ []; [ "--domains"; "4" ]; [ "--procs"; "2" ] ];
      let _ =
        kit_in dir (race @ [ "--schedules"; "64"; "--summary"; "straight.txt" ])
      in
      let _ = kit_in dir (race @ pool_log) in
      let _ =
        kit_in dir
          (race @ pool_log
          @ [ "--schedules"; "64"; "--resume"; "--summary"; "resumed.txt" ])
      in
      check_string "the resumed --schedules 64 run searched every case"
        (read_file (Filename.concat dir "straight.txt"))
        (read_file (Filename.concat dir "resumed.txt")))

(* Every campaign flag with a floor refuses a value below it as a usage
   error: exit 124 with the flag named, before any output — never an
   empty campaign, a late internal error or a silent clamp. *)
let test_out_of_range_flags_refused () =
  with_dir (fun dir ->
      List.iter
        (fun (flag, args) ->
          let code, out, err = kit_in dir args in
          let cmd = String.concat " " args in
          check_int (cmd ^ ": usage error") 124 code;
          check_string (cmd ^ ": no work") "" out;
          check_bool (cmd ^ ": names the flag") true
            (contains ~sub:("'" ^ flag ^ "'") err))
        [ ("--corpus-size", [ "campaign"; "--corpus-size"; "0" ]);
          ("--corpus-size", [ "coverage"; "--corpus-size"; "0"; "--json" ]);
          ("--add", [ "grow"; "--corpus-size"; "16"; "--add=-1" ]);
          ( "--domains",
            [ "campaign"; "--corpus-size"; "16"; "--domains"; "0" ] );
          ("--domains", [ "grow"; "--corpus-size"; "16"; "--domains"; "0" ]);
          ( "--domains",
            [ "coverage"; "--corpus-size"; "16"; "--domains"; "0" ] );
          ( "--schedules",
            [ "campaign"; "--corpus-size"; "16"; "--schedules"; "0" ] );
          ("--procs", [ "campaign"; "--corpus-size"; "16"; "--procs"; "0" ]);
          ( "--checkpoint-every",
            [ "campaign"; "--corpus-size"; "16"; "--checkpoint-every"; "0" ] );
          ( "--max-retries",
            [ "campaign"; "--corpus-size"; "16"; "--max-retries=-1" ] );
          ( "--fault-intensity",
            [ "campaign"; "--corpus-size"; "16"; "--fault-intensity=-1" ] ) ])

(* The daemon and its clients refuse the same way. The socket lies in a
   directory that does not exist, so a value that slipped through would
   fail on bind or connect (exit 3) instead of serving or waiting. *)
let test_out_of_range_serve_flags_refused () =
  with_dir (fun dir ->
      let socket = [ "--socket"; "missing/kit.sock" ] in
      List.iter
        (fun (flag, args) ->
          let code, out, err = kit_in dir args in
          let cmd = String.concat " " args in
          check_int (cmd ^ ": usage error") 124 code;
          check_string (cmd ^ ": no work") "" out;
          check_bool (cmd ^ ": names the flag") true
            (contains ~sub:("'" ^ flag ^ "'") err))
        [ ("--procs", ("serve" :: socket) @ [ "--procs"; "0" ]);
          ("--heartbeat", ("serve" :: socket) @ [ "--heartbeat"; "0" ]);
          ("--heartbeat", ("serve" :: socket) @ [ "--heartbeat=-1.5" ]);
          ("--max-respawns", ("serve" :: socket) @ [ "--max-respawns=-1" ]);
          ("--max-active", ("serve" :: socket) @ [ "--max-active"; "0" ]);
          ("--max-pending", ("serve" :: socket) @ [ "--max-pending=-1" ]);
          ( "--weight",
            ("submit" :: socket) @ [ "--name"; "t"; "--weight"; "0" ] );
          ( "--max-inflight",
            ("submit" :: socket) @ [ "--name"; "t"; "--max-inflight=-1" ] );
          ("--add", ("extend" :: socket) @ [ "t"; "--add"; "0" ]) ])

(* The daemon's socket, driven through the built binary. A peer is any
   local process, so frames that are not a request — the Marshal bytes
   of some other value, random bytes, unknown JSON — are answered with
   [Rejected] and counted in serve.rejected; a frame cut short gets no
   reply. The daemon must come out of all of them serving: a Status is
   answered, and a tenant's summary equals its solo campaign. *)
module Proto = Kit_serve.Proto
module Wire = Kit_serve.Wire

let frame payload =
  let header = Bytes.create 8 in
  Bytes.set_int64_be header 0 (Int64.of_int (String.length payload));
  Bytes.to_string header ^ payload

(* Connect, write [bytes], close the sending side and read the reply:
   [Some reply], or [None] when the daemon hangs up without one. *)
let raw_exchange socket bytes =
  let fd = Proto.connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      match Wire.recv_string fd with
      | Some payload ->
        Some (Kit_core.Codec.parse Proto.reply_of_json payload)
      | None -> None)

let test_daemon_survives_bad_frames () =
  with_dir (fun dir ->
      let socket = Filename.concat dir "kit.sock" in
      let log = Filename.concat dir "daemon.log" in
      let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
      let pid =
        Unix.create_process (Lazy.force kit)
          [| "kit"; "serve"; "--socket"; socket; "--procs"; "1"; "--metrics";
             Filename.concat dir "m.jsonl" |]
          Unix.stdin fd fd
      in
      Unix.close fd;
      let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let reaped = ref false in
      Fun.protect
        ~finally:(fun () ->
          Sys.set_signal Sys.sigpipe prev_sigpipe;
          if not !reaped then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
          end;
          if Sys.file_exists socket then Sys.remove socket)
        (fun () ->
          let rec await n =
            if Sys.file_exists socket then ()
            else if n = 0 then Alcotest.fail "the daemon never listened"
            else (Unix.sleepf 0.05; await (n - 1))
          in
          await 200;
          let rejected bytes =
            match raw_exchange socket bytes with
            | Some (Ok (Proto.Rejected _)) -> true
            | Some _ | None -> false
          in
          let marshalled =
            frame (Marshal.to_string (1, "x", [| 3.0 |]) [ Marshal.No_sharing ])
          in
          check_int "the Marshal frame is 42 bytes" 42 (String.length marshalled);
          check_bool "Marshal bytes are rejected" true (rejected marshalled);
          let st = Random.State.make [| 26 |] in
          check_bool "random bytes are rejected" true
            (rejected (frame (String.init 64 (fun _ -> Char.chr (Random.State.int st 256)))));
          check_bool "an unknown request is rejected" true
            (rejected (frame "\"reboot\""));
          check_bool "a truncated frame gets no reply" true
            (raw_exchange socket (String.sub (frame "\"status\"") 0 12) = None);
          (match Proto.request socket Proto.Status with
          | Ok (Proto.Status_is _) -> ()
          | Ok _ -> Alcotest.fail "Status: unexpected reply"
          | Error e -> Alcotest.failf "Status after bad frames: %s" e);
          let sp =
            { Proto.default_spec with
              Proto.sp_name = "alpha"; sp_seed = 11; sp_corpus_size = 24 }
          in
          (match Proto.request socket (Proto.Submit sp) with
          | Ok (Proto.Accepted _) -> ()
          | Ok _ | Error _ -> Alcotest.fail "the submission was not accepted");
          let rec results n =
            match Proto.request socket (Proto.Results "alpha") with
            | Ok (Proto.Summary s) -> s
            | Ok (Proto.Not_ready _) when n > 0 ->
              Unix.sleepf 0.1;
              results (n - 1)
            | Ok _ | Error _ -> Alcotest.fail "no summary for the tenant"
          in
          check_string "the tenant's summary = its solo campaign"
            (Proto.summary
               (Kit_core.Campaign.run (Proto.options_of_spec sp)))
            (results 600);
          check_bool "Shutdown says Bye" true
            (Proto.request socket Proto.Shutdown = Ok Proto.Bye);
          let _, status = Unix.waitpid [] pid in
          reaped := true;
          check_bool "the daemon exits cleanly" true (status = Unix.WEXITED 0);
          check_bool "serve.rejected counts the three rejections" true
            (contains
               ~sub:"{\"k\":\"counter\",\"name\":\"serve.rejected\",\"value\":3}"
               (read_file (Filename.concat dir "m.jsonl")))))

let suite =
  [
    Alcotest.test_case "resume refuses a log taken under other options"
      `Quick test_resume_refuses_other_options;
    Alcotest.test_case "a finished run deletes its log, any executor" `Quick
      test_finished_run_deletes_its_log;
    Alcotest.test_case "out-of-range campaign flags exit 124 before any work"
      `Quick test_out_of_range_flags_refused;
    Alcotest.test_case "out-of-range serve, submit and extend flags exit 124"
      `Quick test_out_of_range_serve_flags_refused;
    Alcotest.test_case "the daemon rejects frames that are not requests"
      `Quick test_daemon_survives_bad_frames;
  ]
