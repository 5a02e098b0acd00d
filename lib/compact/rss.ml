(* Peak and current resident-set gauges from /proc/self/status, so
   kitbench can track memory wins alongside throughput. Returns 0 on
   platforms without procfs rather than failing — the gauge is
   best-effort telemetry, never load-bearing. *)

let field_kb name =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let prefix = name ^ ":" in
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            if String.length line > String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then
              (* "VmHWM:    12345 kB" — take the digits. *)
              let digits =
                String.to_seq line
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              match int_of_string_opt digits with
              | Some kb -> kb
              | None -> 0
            else scan ()
        in
        scan ())

let peak_kb () = field_kb "VmHWM"
