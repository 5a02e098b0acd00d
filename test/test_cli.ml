(* The checkpoint contract of kit campaign, driven through the built
   binary: one log for every executor, deleted once the result is built,
   refused (exit 3, file untouched) when taken under other options. A
   run killed midway is a run whose log write hits the file-size limit:
   SIGXFSZ lands at a byte the test chooses, not at a time. *)

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

let suite =
  [
    Alcotest.test_case "resume refuses a log taken under other options"
      `Quick test_resume_refuses_other_options;
    Alcotest.test_case "a finished run deletes its log, any executor" `Quick
      test_finished_run_deletes_its_log;
  ]
