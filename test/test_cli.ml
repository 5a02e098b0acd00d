(* The contract of kit's campaign commands, driven through the built
   binary. The checkpoint: one log for every executor, deleted once the
   result is built, refused (exit 3, file untouched) when taken under
   other options. A run killed midway is a run whose log write hits the
   file-size limit: SIGXFSZ lands at a byte the test chooses, not at a
   time. The flags, the campaign's and the daemon's: a value out of range
   is a usage error. And the repository's own export check
   (tools/unused_exports.sh), run on a planted tree. *)

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
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir) : int))
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

(* The robustness lines of a faulted campaign. On --domains the
   campaign's own supervisor runs nothing: the lines add every domain's
   supervisor, so they agree with the run's --metrics export and count
   the run's executions, as a sequential run's do. On --procs the
   counters stay in the worker processes, and the lines say so. *)
let faulted =
  [ "campaign"; "--corpus-size"; "120"; "--seed"; "7"; "--faults";
    "panic:socket:2,hang:read:1,boot:1,snap:1"; "--fault-intensity"; "4" ]

let line_of out prefix =
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out)
  with
  | Some l -> l
  | None -> Alcotest.failf "no %S line" prefix

let test_robustness_counters_cover_every_executor () =
  with_dir (fun dir ->
      let code, out, _ =
        kit_in dir (faulted @ [ "--domains"; "3"; "--metrics"; "m.jsonl" ])
      in
      check_int "recovered, reports found" 1 code;
      let lines = String.split_on_char '\n' out in
      let line = line_of out in
      let executions =
        Scanf.sscanf
          (List.find (contains ~sub:" program executions in ") lines)
          "%d program executions" Fun.id
      in
      let fired_executions =
        match String.split_on_char ' ' (line "faults fired: ") |> List.rev with
        | "executions" :: n :: "over" :: _ -> int_of_string n
        | _ -> Alcotest.fail "faults fired: no execution count"
      in
      check_bool "domains ran" true (executions > 0);
      check_int "faults fired over the run's executions" executions
        fired_executions;
      let printed =
        Scanf.sscanf (line "supervisor: ")
          "supervisor: %d attempts, %d retries, %d reboots (%d boot failures, \
           %d corruptions)"
          (fun a r b f c -> [ a; r; b; f; c ])
      in
      let metrics =
        String.split_on_char '\n' (read_file (Filename.concat dir "m.jsonl"))
      in
      let counter name =
        let prefix =
          Printf.sprintf {|{"k":"counter","name":"sup.%s","value":|} name
        in
        match List.find_opt (String.starts_with ~prefix) metrics with
        | Some l ->
          let n = String.length prefix in
          Scanf.sscanf (String.sub l n (String.length l - n)) "%d" Fun.id
        | None -> Alcotest.failf "no sup.%s counter" name
      in
      Alcotest.(check (list int)) "supervisor line = sup.* counters"
        (List.map counter
           [ "attempts"; "retries"; "reboots"; "boot_failures"; "corruptions" ])
        printed;
      check_bool "attempts counted" true (List.hd printed > 0);
      let _, out, _ = kit_in dir (faulted @ [ "--procs"; "2" ]) in
      List.iter
        (fun prefix ->
          check_bool (prefix ^ " says where the counters are") true
            (contains ~sub:"counted in the 2 worker processes"
               (line_of out prefix)))
        [ "faults fired: "; "supervisor: " ])

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
          ("--add", ("extend" :: socket) @ [ "t"; "--add"; "0" ]) ])

(* The daemon's socket, driven through the built binary. A peer is any
   local process, so frames that are not a request — the Marshal bytes
   of some other value, random bytes, unknown JSON, a header announcing
   more than Wire.max_frame — are answered with [Rejected] and counted
   in serve.rejected; a frame cut short gets no reply. The daemon must
   come out of all of them serving: a Status is answered, and a tenant's
   summary equals its solo campaign. *)
module Proto = Kit_serve.Proto
module Wire = Kit_serve.Wire

(* The 8-byte header of a frame announcing [n] payload bytes. *)
let header n =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int n);
  Bytes.to_string b

let frame payload = header (String.length payload) ^ payload

(* The reply a connection brings: [Some reply], or [None] when the
   daemon hangs up without one. *)
let read_reply fd =
  let inbox = Wire.inbox () in
  let rec go () =
    match Wire.take inbox with
    | Wire.Frame payload ->
      Some (Kit_core.Codec.parse Proto.reply_of_json payload)
    | Wire.Bad why -> Alcotest.fail ("bad reply frame: " ^ why)
    | Wire.Short -> if Wire.fill fd inbox then go () else None
  in
  go ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* Connect, write [bytes], close the sending side and read the reply. *)
let raw_exchange socket bytes =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      read_reply fd)

(* [kit serve --socket DIR/kit.sock ARGS], its output in DIR/daemon.log;
   [f socket shutdown] runs once the socket is up. [shutdown ()] sends
   Shutdown, checks the Bye and returns the daemon's exit status; a
   daemon [f] leaves running is killed. *)
let with_daemon dir args f =
  let socket = Filename.concat dir "kit.sock" in
  let fd =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600
  in
  let pid =
    Unix.create_process (Lazy.force kit)
      (Array.of_list ("kit" :: "serve" :: "--socket" :: socket :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let reaped = ref false in
  let shutdown () =
    check_bool "Shutdown says Bye" true
      (Proto.request socket Proto.Shutdown = Ok Proto.Bye);
    let _, status = Unix.waitpid [] pid in
    reaped := true;
    status
  in
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
      f socket shutdown)

let status socket =
  match Proto.request socket Proto.Status with
  | Ok (Proto.Status_is { st_pool; _ }) -> st_pool
  | Ok _ -> Alcotest.fail "Status: unexpected reply"
  | Error e -> Alcotest.failf "Status: %s" e

let submit socket sp =
  match Proto.request socket (Proto.Submit sp) with
  | Ok (Proto.Accepted _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "the submission was not accepted"

let rec await_summary ?(tries = 600) socket name =
  match Proto.request socket (Proto.Results name) with
  | Ok (Proto.Summary s) -> s
  | Ok (Proto.Not_ready _) when tries > 0 ->
    Unix.sleepf 0.1;
    await_summary ~tries:(tries - 1) socket name
  | Ok _ | Error _ -> Alcotest.fail ("no summary for tenant " ^ name)

let check_solo sp summary =
  check_string "the tenant's summary = its solo campaign"
    (Proto.summary (Kit_core.Campaign.run (Proto.options_of_spec sp)))
    summary

(* Send a Status and require its answer within half a second: a daemon
   stalled by another client would answer only once that client is
   done, so the read is bounded instead. *)
let prompt_status socket ~during =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let t = Unix.gettimeofday () in
      let req = frame "\"status\"" in
      ignore (Unix.write_substring fd req 0 (String.length req) : int);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5;
      (match read_reply fd with
      | Some (Ok (Proto.Status_is _)) -> ()
      | Some _ | None -> Alcotest.fail "Status: unexpected reply"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "a Status %s waited 0.5 s" during);
      let waited = Unix.gettimeofday () -. t in
      if waited >= 0.5 then
        Alcotest.failf "a Status %s waited %.2f s" during waited)

let counter_line name value =
  Printf.sprintf "{\"k\":\"counter\",\"name\":\"%s\",\"value\":%d}" name
    value

let test_daemon_survives_bad_frames () =
  with_dir (fun dir ->
      let metrics = Filename.concat dir "m.jsonl" in
      with_daemon dir [ "--procs"; "1"; "--metrics"; metrics ]
        (fun socket shutdown ->
          let rejected bytes =
            match raw_exchange socket bytes with
            | Some (Ok (Proto.Rejected why)) -> Some why
            | Some _ | None -> None
          in
          let marshalled =
            frame (Marshal.to_string (1, "x", [| 3.0 |]) [ Marshal.No_sharing ])
          in
          check_int "the Marshal frame is 42 bytes" 42 (String.length marshalled);
          check_bool "Marshal bytes are rejected" true
            (rejected marshalled <> None);
          let st = Random.State.make [| 26 |] in
          check_bool "random bytes are rejected" true
            (rejected
               (frame (String.init 64 (fun _ -> Char.chr (Random.State.int st 256))))
            <> None);
          check_bool "an unknown request is rejected" true
            (rejected (frame "\"reboot\"") <> None);
          (match rejected (header (Wire.max_frame + 1)) with
          | None -> Alcotest.fail "an oversized header is not rejected"
          | Some why ->
            List.iter
              (fun n ->
                check_bool ("the rejection names " ^ n) true (contains ~sub:n why))
              [ string_of_int (Wire.max_frame + 1); string_of_int Wire.max_frame ]);
          check_bool "a truncated frame gets no reply" true
            (raw_exchange socket (String.sub (frame "\"status\"") 0 12) = None);
          ignore (status socket : Proto.pool_status);
          let sp =
            { Proto.default_spec with
              Proto.sp_name = "alpha"; sp_seed = 11; sp_corpus_size = 24 }
          in
          submit socket sp;
          check_solo sp (await_summary socket "alpha");
          check_bool "the daemon exits cleanly" true (shutdown () = Unix.WEXITED 0));
      check_bool "serve.rejected counts the four rejections" true
        (contains ~sub:(counter_line "serve.rejected" 4) (read_file metrics)))

(* A client that sends part of a frame and then sleeps stalls nothing:
   its bytes are gathered between scheduler steps, a Status sent
   meanwhile is answered at once, and the connection is closed about a
   second after its accept and counted in serve.client_timeouts. The
   tenant running under a heartbeat shorter than the hold loses no
   worker, and its summary equals its solo campaign. *)
let test_slow_client_stalls_nothing () =
  with_dir (fun dir ->
      let metrics = Filename.concat dir "m.jsonl" in
      with_daemon dir
        [ "--procs"; "1"; "--heartbeat"; "0.5"; "--metrics"; metrics ]
        (fun socket shutdown ->
          let sp =
            { Proto.default_spec with
              Proto.sp_name = "alpha"; sp_seed = 11; sp_corpus_size = 96 }
          in
          submit socket sp;
          let hold = 3.0 in
          let held = connect socket in
          Fun.protect
            ~finally:(fun () -> Unix.close held)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              ignore (Unix.write_substring held (header 16) 0 8 : int);
              Unix.sleepf 0.6;
              prompt_status socket ~during:"during the hold";
              let remaining = hold -. (Unix.gettimeofday () -. t0) in
              check_bool "the held connection reads EOF before the hold ends"
                true
                (match Unix.select [ held ] [] [] remaining with
                | [], _, _ -> false
                | _ -> read_reply held = None));
          check_solo sp (await_summary socket "alpha");
          check_int "no worker died" 0 (status socket).Proto.ps_deaths;
          check_bool "the daemon exits cleanly" true (shutdown () = Unix.WEXITED 0));
      check_bool "serve.client_timeouts counts the held connection" true
        (contains ~sub:(counter_line "serve.client_timeouts" 1)
           (read_file metrics)))

(* A client that streams without pause holds the daemon for one largest
   frame at most: a connection's inbox stops filling at 8 +
   Wire.max_frame bytes, so the frame its header announced is answered
   [Rejected] and the connection closed long before the stream would
   end, and a Status sent while the stream runs is answered at once. A
   reader that kept reading while the stream held bytes stayed in one
   fill for as long as the client wrote, its inbox doubling all the
   while. *)
let test_streaming_client () =
  with_dir (fun dir ->
      with_daemon dir [ "--procs"; "1" ] (fun socket shutdown ->
          let length = 4 * Wire.max_frame in
          let sent = Atomic.make 0 in
          let streamer =
            Domain.spawn (fun () ->
                let fd = connect socket in
                Fun.protect
                  ~finally:(fun () -> Unix.close fd)
                  (fun () ->
                    (* Large writes keep the socket full, so a reader
                       that read on while bytes were waiting would stay
                       in one fill; a daemon that neither reads nor hangs
                       up fails the test instead of blocking it. *)
                    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
                    let chunk = Bytes.make (4 lsl 20) 'x' in
                    let rec go () =
                      if Atomic.get sent >= length then `Read_to_its_end
                      else
                        match Unix.write fd chunk 0 (Bytes.length chunk) with
                        | n -> ignore (Atomic.fetch_and_add sent n : int); go ()
                        | exception
                            Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                          -> `Cut (read_reply fd)
                        | exception
                            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                          -> `Stalled
                    in
                    ignore (Unix.write_substring fd (header Wire.max_frame) 0 8 : int);
                    go ()))
          in
          let rec started n =
            if Atomic.get sent < 1 lsl 20 && n > 0 then (
              Unix.sleepf 0.001;
              started (n - 1))
          in
          started 2000;
          (try prompt_status socket ~during:"while a client streams"
           with e -> ignore (Domain.join streamer); raise e);
          (match Domain.join streamer with
          | `Cut (Some (Ok (Proto.Rejected _))) -> ()
          | `Cut _ -> Alcotest.fail "the cut stream got no Rejected reply"
          | `Read_to_its_end -> Alcotest.fail "the daemon read the whole stream"
          | `Stalled -> Alcotest.fail "the daemon stopped reading the stream");
          (* Past the largest frame, only what the socket buffers hold. *)
          check_bool "the daemon read one largest frame of the stream" true
            (Atomic.get sent < Wire.max_frame + (4 lsl 20));
          ignore (status socket : Proto.pool_status);
          check_bool "the daemon exits cleanly" true (shutdown () = Unix.WEXITED 0)))

(* A flood of idle connections cannot take the daemon down: it keeps a
   bounded number open and the rest wait in the listen backlog. Accepting
   every one ran past the descriptors [select] takes, and the daemon
   died of EINVAL, within a fifth of a second of such a flood. *)
let test_connection_flood () =
  with_dir (fun dir ->
      with_daemon dir [ "--procs"; "1" ] (fun socket shutdown ->
          let conns = ref [] and opened = ref 0 in
          let t0 = Unix.gettimeofday () in
          let flooding () = !opened < 1100 && Unix.gettimeofday () -. t0 < 1.0 in
          Fun.protect
            ~finally:(fun () -> List.iter Unix.close !conns)
            (fun () ->
              (try
                 while flooding () do
                   let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                   conns := fd :: !conns;
                   Unix.set_nonblock fd;
                   let rec go () =
                     match Unix.connect fd (Unix.ADDR_UNIX socket) with
                     | () -> incr opened
                     | exception Unix.Unix_error (Unix.EAGAIN, _, _)
                       when flooding () ->
                       Unix.sleepf 0.001;
                       go ()
                   in
                   go ()
                 done
               with
               | Unix.Unix_error
                   ((Unix.EAGAIN | Unix.EMFILE | Unix.ENOENT | Unix.ECONNREFUSED), _, _)
               -> ());
              ignore (status socket : Proto.pool_status));
          check_bool "the daemon exits cleanly" true (shutdown () = Unix.WEXITED 0)))

(* A second daemon on a live socket exits 3 naming it, before it touches
   anything: it resumes no tenant, the first keeps its socket file, its
   state directory is byte for byte as it was, and it still answers. *)
let test_second_daemon_refused () =
  with_dir (fun dir ->
      let state = Filename.concat dir "state" in
      let args = [ "--procs"; "1"; "--state-dir"; state ] in
      with_daemon dir args (fun socket shutdown ->
          let sp =
            { Proto.default_spec with
              Proto.sp_name = "alpha"; sp_seed = 11; sp_corpus_size = 24 }
          in
          submit socket sp;
          ignore (await_summary socket "alpha" : string);
          let snapshot () =
            ( (Unix.stat socket).Unix.st_ino,
              Sys.readdir state |> Array.to_list |> List.sort compare
              |> List.map (fun f -> (f, read_file (Filename.concat state f))) )
          in
          let before = snapshot () in
          check_bool "the state dir holds the tenant's log" true
            (snd before <> []);
          (* A daemon that took the socket over would serve on: it is
             given 10 s to exit, then killed. *)
          let err = Filename.concat dir "second.err" in
          let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
          let pid =
            Unix.create_process (Lazy.force kit)
              (Array.of_list
                 ("kit" :: "serve" :: "--socket" :: socket :: "--resume" :: args))
              Unix.stdin fd fd
          in
          Unix.close fd;
          let rec wait n =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ when n > 0 -> Unix.sleepf 0.05; wait (n - 1)
            | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              Alcotest.fail "the second daemon kept running"
            | _, status -> status
          in
          check_bool "the second daemon exits 3" true (wait 200 = Unix.WEXITED 3);
          let said = read_file err in
          check_bool "its message names the socket" true (contains ~sub:socket said);
          check_bool "it resumes no tenant" false
            (contains ~sub:"resumed tenant" said);
          check_bool "the socket file and the state dir are unchanged" true
            (snapshot () = before);
          ignore (status socket : Proto.pool_status);
          check_bool "the daemon exits cleanly" true (shutdown () = Unix.WEXITED 0)))

(* -- the unused-export check ------------------------------------------ *)

let unused_exports =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "../tools/unused_exports.sh"; "tools/unused_exports.sh" ]
     with
    | Some path -> Filename.concat (Sys.getcwd ()) path
    | None -> Alcotest.fail "tools/unused_exports.sh not found")

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The check over a one-library tree in [dir]: module Foo exports
   [planted] and [used], [caller] is bin/main.ml, [test] is
   test/main.ml and [allow] the allowlist. Returns the exit code and
   the output. *)
let check_exports dir ?(test = "") ~allow caller =
  List.iter
    (fun d ->
      let d = Filename.concat dir d in
      if not (Sys.file_exists d) then Unix.mkdir d 0o700)
    [ "lib"; "lib/foo"; "bin"; "test"; "tools" ];
  write_file (Filename.concat dir "lib/foo/foo.mli")
    "val planted : int -> int\nval used : int -> int\n";
  write_file (Filename.concat dir "lib/foo/foo.ml")
    "let planted x = x\nlet used x = x\n";
  write_file (Filename.concat dir "bin/main.ml") caller;
  write_file (Filename.concat dir "test/main.ml") test;
  write_file (Filename.concat dir "tools/unused_exports.allow") allow;
  let out = Filename.concat dir "out" in
  let code =
    Sys.command
      (Printf.sprintf "sh %s %s > %s 2>&1"
         (Filename.quote (Lazy.force unused_exports))
         (Filename.quote dir) (Filename.quote out))
  in
  (code, read_file out)

(* An export named only in a comment — by its bare name or as
   [Foo.planted], in a nested comment, or past a string that holds a
   comment closer — has no caller, nor has one called only from test/;
   one called as [Foo.planted], qualified or not, or by its bare name
   where Foo is opened, has, even after a string that holds a comment
   opener or a comment that holds a double-quote character; so does one
   on the allowlist under a reason. *)
let test_unused_exports_check () =
  let dir = Filename.temp_file "kit-exports" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir) : int))
    (fun () ->
      let comment = "(* planted, in a comment *)\nlet () = ignore (Foo.used 1)\n" in
      List.iter
        (fun caller ->
          let code, out = check_exports dir ~allow:"" caller in
          check_int ("a name in a comment is no caller: " ^ String.escaped caller)
            1 code;
          check_bool "the planted export is named" true
            (contains ~sub:"Foo.planted has no caller" out);
          check_bool "the called export is not" false
            (contains ~sub:"Foo.used" out))
        [ comment;
          "(* Foo.planted *)\nlet () = ignore (Foo.used 1)\n";
          "(* (* nested *) Foo.planted\n   (* twice *) *)\nlet () = ignore (Foo.used 1)\n";
          "(* \"*)\" Foo.planted *)\nlet () = ignore (Foo.used 1)\n" ];
      List.iter
        (fun caller ->
          let code, out = check_exports dir ~allow:"" caller in
          check_int ("a caller: " ^ String.escaped caller) 0 code;
          check_string "nothing reported" "" out)
        [ "let () = ignore (Foo.used (Lib.Foo.planted 1))\n";
          "open Foo\nlet () = ignore (used (planted 1))\n";
          "let () = ignore Foo.(used (planted 1))\n";
          "let s = \"(*\"\nlet () = ignore (Foo.used (Foo.planted (String.length s)))\n";
          "let s = {|(*|}\nlet () = ignore (Foo.used (Foo.planted (String.length s)))\n";
          "(* '\"' *)\nlet () = ignore (Foo.used (Foo.planted 1))\n" ];
      let test = "let () = ignore (Foo.planted 1)\n" in
      let code, out = check_exports dir ~test ~allow:"" comment in
      check_int "a caller in test/ is no caller" 1 code;
      check_bool "the test-only export is named" true
        (contains ~sub:"Foo.planted has no caller" out);
      let reason = "# a seam only tests can drive\nFoo.planted\n" in
      let code, _ = check_exports dir ~test ~allow:reason comment in
      check_int "an allowlisted test-only export passes" 0 code;
      let code, _ = check_exports dir ~allow:reason comment in
      check_int "an allowlisted export passes" 0 code;
      let code, _ = check_exports dir ~allow:"\nFoo.planted\n" comment in
      check_int "an allowlisted export needs a reason" 1 code)

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
    Alcotest.test_case "a slow client stalls no other client" `Quick
      test_slow_client_stalls_nothing;
    Alcotest.test_case "a streaming client holds the daemon for one frame"
      `Quick test_streaming_client;
    Alcotest.test_case "a second daemon leaves a live socket alone" `Quick
      test_second_daemon_refused;
    Alcotest.test_case "a flood of idle connections cannot kill the daemon"
      `Quick test_connection_flood;
    Alcotest.test_case "the export check: a comment is no caller" `Quick
      test_unused_exports_check;
    Alcotest.test_case "robustness counters cover every executor" `Quick
      test_robustness_counters_cover_every_executor;
  ]
