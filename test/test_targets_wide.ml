(* Tests for the wide-vector targets: late-bound SVE vector-length
   resolution and cross-VL bit-identity, AVX-512 native masking vs the
   older targets' blend emulation, the predicated vector tail, the
   upgrade-rejuvenation path (sse->avx512, neon->sve) through the replay
   service's retarget triggers, and heterogeneous-fleet serving
   determinism across domain counts. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Exec = Vapor_harness.Exec
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Bytecode = Vapor_vecir.Bytecode
module Veval = Vapor_vecir.Veval
module Target = Vapor_targets.Target
module Minstr = Vapor_machine.Minstr
module Mfun = Vapor_machine.Mfun
module Stats = Vapor_runtime.Stats
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Workload = Vapor_serve.Workload
module Serve = Vapor_serve.Serve

let scalar = Vapor_targets.Scalar_target.target
let sse = Vapor_targets.Sse.target
let avx = Vapor_targets.Avx.target
let neon = Vapor_targets.Neon.target
let altivec = Vapor_targets.Altivec.target
let sve = Vapor_targets.Sve.target
let avx512 = Vapor_targets.Avx512.target
let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let mono = Profile.mono

let args_equal a b =
  List.for_all2
    (fun (_, x) (_, y) ->
      match x, y with
      | Eval.Array bx, Eval.Array by -> Buffer_.equal bx by
      | _, _ -> true)
    a b

(* Compile and run one suite entry on [target]; returns the mutated args. *)
let run_on ?(scale = 2) (entry : Suite.entry) target =
  let result = Driver.vectorize (Suite.kernel entry) in
  let compiled = Compile.compile ~target ~profile:mono result.Driver.vkernel in
  let args = entry.Suite.args ~scale in
  ignore (Exec.run target compiled ~args);
  args

(* --- late-bound resolution ----------------------------------------------- *)

let resolve_case () =
  check_bool "registry sve is late-bound" true sve.Target.vs_late_bound;
  check_bool "avx512 is fixed" false avx512.Target.vs_late_bound;
  let r = Target.resolve sve in
  check_string "default VL names sve256" "sve256" r.Target.name;
  check_int "default VL is 32 bytes" 32 r.Target.vs;
  check_bool "resolved target is concrete" false r.Target.vs_late_bound;
  check_string "16 bytes -> sve128" "sve128"
    (Target.resolve ~vl:16 sve).Target.name;
  check_string "64 bytes -> sve512" "sve512"
    (Target.resolve ~vl:64 sve).Target.name;
  check_bool "resolve is idempotent" true
    (Target.resolve (Target.resolve ~vl:64 sve) == Target.resolve ~vl:64 sve
    || (Target.resolve (Target.resolve ~vl:64 sve)).Target.name = "sve512");
  check_bool "fixed target resolves to itself" true
    (Target.resolve sse == sse);
  (match Target.resolve ~vl:128 sve with
  | _ -> fail "VL outside [vl_min,vl_max] must be rejected"
  | exception Invalid_argument _ -> ());
  match Target.resolve ~vl:32 sse with
  | _ -> fail "pinning a fixed target to a foreign VL must be rejected"
  | exception Invalid_argument _ -> ()

(* --- SVE bit-identity across vector lengths ------------------------------ *)

(* Every kernel without an FP reduction must produce identical bits at
   VL 128/256/512 (the vector-length-agnostic contract); FP-reduction
   kernels legitimately vary (the partial-sum partition follows the VF)
   but must still bit-match the reference interpreter at each VL. *)
let sve_vl_identity_case () =
  let vls = [ 16; 32; 64 ] in
  List.iter
    (fun (entry : Suite.entry) ->
      let result = Driver.vectorize (Suite.kernel entry) in
      let vk = result.Driver.vkernel in
      if Bytecode.has_fp_reduction vk then
        List.iter
          (fun vl ->
            let t = Target.resolve ~vl sve in
            let args = run_on entry t in
            let ref_args = Eval.copy_args (entry.Suite.args ~scale:2) in
            ignore
              (Veval.run vk ~mode:(Veval.Vector t.Target.vs) ~args:ref_args);
            check_bool
              (Printf.sprintf "%s matches interpreter at %s" entry.Suite.name
                 t.Target.name)
              true
              (args_equal args ref_args))
          vls
      else
        let outs =
          List.map (fun vl -> vl, run_on entry (Target.resolve ~vl sve)) vls
        in
        match outs with
        | (_, first) :: rest ->
          List.iter
            (fun (vl, args) ->
              check_bool
                (Printf.sprintf "%s bit-identical at VL %d vs 128"
                   entry.Suite.name (vl * 8))
                true (args_equal first args))
            rest
        | [] -> fail "no VLs")
    Suite.all

let sve_vl_qcheck =
  QCheck.Test.make ~count:60 ~name:"random (kernel, scale): sve VLs agree"
    QCheck.(pair (int_bound (List.length Suite.all - 1)) (int_range 1 3))
    (fun (ki, scale) ->
      let entry = List.nth Suite.all ki in
      let result = Driver.vectorize (Suite.kernel entry) in
      if Bytecode.has_fp_reduction result.Driver.vkernel then true
      else
        let a128 = run_on ~scale entry (Target.resolve ~vl:16 sve) in
        let a256 = run_on ~scale entry (Target.resolve ~vl:32 sve) in
        let a512 = run_on ~scale entry (Target.resolve ~vl:64 sve) in
        args_equal a128 a256 && args_equal a128 a512)

(* --- AVX-512 native masking vs blend emulation --------------------------- *)

(* The masked instructions only change how lanes are guarded, never which
   values come out: AVX-512 (native masking, VS 64) must agree bit-for-bit
   with AVX (blend emulation, VS 32) on every kernel whose bits are
   VF-invariant, and with the reference interpreter on all of them. *)
let avx512_vs_blend_case () =
  List.iter
    (fun (entry : Suite.entry) ->
      let result = Driver.vectorize (Suite.kernel entry) in
      let vk = result.Driver.vkernel in
      let wide = run_on entry avx512 in
      let ref_args = Eval.copy_args (entry.Suite.args ~scale:2) in
      ignore (Veval.run vk ~mode:(Veval.Vector avx512.Target.vs) ~args:ref_args);
      check_bool
        (Printf.sprintf "%s: avx512 matches interpreter" entry.Suite.name)
        true
        (args_equal wide ref_args);
      if not (Bytecode.has_fp_reduction vk) then begin
        let blend = run_on entry avx in
        check_bool
          (Printf.sprintf "%s: avx512 masked == avx blend" entry.Suite.name)
          true (args_equal wide blend)
      end)
    Suite.all

(* --- predicated vector tail ---------------------------------------------- *)

let masked_count target =
  let result = Driver.vectorize (Suite.kernel (Suite.find "saxpy_fp")) in
  let compiled = Compile.compile ~target ~profile:mono result.Driver.vkernel in
  Array.fold_left
    (fun n (i : Minstr.t) ->
      match i with
      | Minstr.VMaskedLoad _ | Minstr.VMaskedStore _ -> n + 1
      | _ -> n)
    0 compiled.Compile.mfun.Mfun.instrs

let masked_tail_case () =
  check_bool "avx512 emits masked instructions" true (masked_count avx512 > 0);
  check_bool "sve emits masked instructions" true
    (masked_count (Target.resolve sve) > 0);
  (* Old targets have no native masking: the sentinel cost model and the
     emitter must keep them on the scalar-epilogue path. *)
  List.iter
    (fun t ->
      check_int
        (Printf.sprintf "%s emits no masked instructions" t.Target.name)
        0 (masked_count t))
    [ scalar; sse; avx; neon; altivec ]

(* --- upgrade rejuvenation through the replay service --------------------- *)

let upgrade_rejuvenation_case () =
  let trace = Trace.standard ~length:240 ~n_targets:2 () in
  let cfg =
    {
      (Service.default_config ~targets:[ sse; neon ]) with
      Service.cfg_retargets =
        [ 80, sse, avx512; 80, neon, Target.resolve sve ];
      cfg_label_targets = true;
    }
  in
  let stats = Stats.create () in
  let rp = Service.replay ~stats cfg trace in
  check_int "every event served" 240 rp.Service.rp_invocations;
  check_bool "cached bodies were re-lowered to the upgraded targets" true
    (rp.Service.rp_rejuvenations > 0);
  check_bool "old-target cache entries were invalidated" true
    (Stats.counter stats "cache.invalidations" > 0);
  let rows t = List.filter (fun (r : Service.kernel_row) -> r.Service.kr_target = t) rp.Service.rp_rows in
  check_bool "avx512 served traffic after the upgrade" true
    (List.exists (fun (r : Service.kernel_row) -> r.Service.kr_invocations > 0) (rows "avx512"));
  check_bool "sve256 served traffic after the upgrade" true
    (List.exists (fun (r : Service.kernel_row) -> r.Service.kr_invocations > 0) (rows "sve256"));
  (* Rejuvenated bodies recompile on the upgraded target: the new target
     must pay real compiles of its own (visible as cache misses after the
     trigger) and the per-target labels must cover every invocation. *)
  let labeled t = Stats.counter stats ("target." ^ t ^ ".invocations") in
  check_int "labels account every invocation" 240
    (List.fold_left (fun acc t -> acc + labeled t)
       0 [ "sse"; "neon"; "avx512"; "sve256" ]);
  check_bool "upgraded targets recompiled" true
    (List.exists (fun (r : Service.kernel_row) -> r.Service.kr_jit_runs > 0)
       (rows "avx512" @ rows "sve256"))

(* Upgrading must not change what comes out: a retargeted replay still
   answers every event and an unretargeted control over the same trace
   serves the same count (outputs are oracle-checked elsewhere; here the
   service-level conservation is the contract). *)
let upgrade_conservation_case () =
  let trace = Trace.standard ~length:160 ~n_targets:1 () in
  let plain =
    Service.replay (Service.default_config ~targets:[ sse ]) trace
  in
  let upgraded =
    Service.replay
      {
        (Service.default_config ~targets:[ sse ]) with
        Service.cfg_retargets = [ 60, sse, avx512 ];
      }
      trace
  in
  check_int "same invocation count" plain.Service.rp_invocations
    upgraded.Service.rp_invocations;
  check_bool "rejuvenated bodies counted" true
    (upgraded.Service.rp_rejuvenations > 0)

(* --- heterogeneous fleet: determinism across domains --------------------- *)

let fleet_domains_case () =
  let population =
    [ scalar; sse; avx; neon; altivec; Target.resolve ~vl:16 sve; avx512 ]
  in
  let trace =
    Trace.standard ~length:280 ~n_targets:(List.length population) ()
  in
  let run domains =
    let cfg =
      {
        (Service.default_config ~targets:population) with
        Service.cfg_retargets =
          [ 90, sse, avx512; 90, neon, Target.resolve sve ];
        cfg_label_targets = true;
      }
    in
    let stats = Stats.create () in
    let rep =
      Serve.run ~stats
        {
          Serve.sv_service = cfg;
          sv_domains = domains;
          sv_lanes = 2;
          sv_budget = 8;
          sv_backlog = None;
          sv_faults = None;
          sv_breaker_threshold = 3;
          sv_breaker_cooldown = 1_000_000;
          sv_max_batch = 1;
          sv_batch_window = 1024;
          sv_checkpoint_every = 0;
          sv_journal_dir = None;
          sv_restart_limit = 3;
          sv_lane_stall_limit = 8192;
          sv_crash_at = [];
          sv_wedge_at = [];
        }
        (Workload.of_trace ~streams:4 trace)
    in
    let counters =
      List.filter_map
        (fun name ->
          if String.length name > 7 && String.sub name 0 7 = "target." then
            Some (name, Stats.counter stats name)
          else None)
        (List.sort compare (Stats.counter_names stats))
    in
    ( Service.report_to_string rep.Serve.sr_service,
      rep.Serve.sr_answered,
      rep.Serve.sr_lost,
      counters )
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  check_bool "domains=2 identical to domains=1" true (r1 = r2);
  check_bool "domains=4 identical to domains=1" true (r1 = r4);
  let _, answered, lost, counters = r1 in
  check_int "every event answered" 280 answered;
  check_int "no event lost" 0 lost;
  check_bool "avx512 counters present after upgrade" true
    (List.mem_assoc "target.avx512.invocations" counters)

let () =
  Alcotest.run "targets_wide"
    [
      ( "resolve",
        [ Alcotest.test_case "late-bound VL resolution" `Quick resolve_case ] );
      ( "sve_vl",
        [
          Alcotest.test_case "suite bit-identity across VLs" `Slow
            sve_vl_identity_case;
          QCheck_alcotest.to_alcotest sve_vl_qcheck;
        ] );
      ( "avx512",
        [
          Alcotest.test_case "masked vs blend emulation" `Slow
            avx512_vs_blend_case;
          Alcotest.test_case "predicated tail emission" `Quick
            masked_tail_case;
        ] );
      ( "rejuvenation",
        [
          Alcotest.test_case "upgrade triggers" `Quick
            upgrade_rejuvenation_case;
          Alcotest.test_case "conservation" `Quick upgrade_conservation_case;
        ] );
      ( "fleet",
        [ Alcotest.test_case "domains determinism" `Slow fleet_domains_case ]
      );
    ]
