(* Test runner aggregating all library suites. *)

(* Pool workers and the fingerprint cross-process check are
   re-executions of this binary; the trampolines must run before
   alcotest sees argv. No-ops in the parent. *)
let () = Kit_serve.Pool.worker_entry ()
let () = Test_repr.child_entry ()

let () =
  Alcotest.run "kit"
    [
      ("abi", Test_abi.suite);
      ("kernel", Test_kernel.suite);
      ("trace", Test_trace.suite);
      ("profile", Test_profile.suite);
      ("spec", Test_spec.suite);
      ("gen", Test_gen.suite);
      ("exec", Test_exec.suite);
      ("detect", Test_detect.suite);
      ("report", Test_report.suite);
      ("obs", Test_obs.suite);
      ("traceana", Test_traceana.suite);
      ("core", Test_core.suite);
      ("ext", Test_ext.suite);
      ("fault", Test_fault.suite);
      ("edge", Test_edge.suite);
      ("props", Test_props.suite);
      ("repr", Test_repr.suite);
      ("sched", Test_sched.suite);
      ("coverage", Test_coverage.suite);
      ("serve", Test_serve.suite);
      ("ckpt", Test_ckpt.suite);
      ("cli", Test_cli.suite);
    ]
