(* End-to-end differential tests: every kernel, compiled by every flow for
   every target, must compute what the reference interpreter computes. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Flows = Vapor_harness.Flows
module Targets = Vapor_targets.Scalar_target
module Profile = Vapor_jit.Profile

let fail = Alcotest.fail

let compare_arrays ~eps name ref_args got_args =
  List.iter2
    (fun (n1, b1) (_, b2) ->
      if not (Buffer_.close ~eps b1 b2) then
        fail
          (Format.asprintf "%s: array %s differs@.ref: %a@.got: %a" name n1
             Buffer_.pp b1 Buffer_.pp b2))
    (Suite.arrays_of_args ref_args)
    (Suite.arrays_of_args got_args)

(* Run [flow] on fresh args and compare against the interpreter. *)
let differential ~flow entry () =
  let k = Suite.kernel entry in
  let ref_args = entry.Suite.args ~scale:1 in
  ignore (Eval.run k ~args:ref_args);
  let got_args = Eval.copy_args (entry.Suite.args ~scale:1) in
  (* [flow] must build its own args; adapt: we run it with got_args by
     constructing a one-shot entry. *)
  let entry' = { entry with Suite.args = (fun ~scale -> ignore scale; got_args) } in
  let (_ : Flows.flow_result) = flow entry' in
  compare_arrays ~eps:1e-3 entry.Suite.name ref_args got_args

let per_target_tests =
  List.concat_map
    (fun target ->
      let tname = target.Vapor_targets.Target.name in
      List.concat_map
        (fun entry ->
          [
            Alcotest.test_case
              (Printf.sprintf "%s %s native-scalar" tname entry.Suite.name)
              `Quick
              (differential
                 ~flow:(fun e -> Flows.native_scalar ~target e ~scale:1)
                 entry);
            Alcotest.test_case
              (Printf.sprintf "%s %s native-vector" tname entry.Suite.name)
              `Quick
              (differential
                 ~flow:(fun e -> Flows.native_vector ~target e ~scale:1)
                 entry);
            Alcotest.test_case
              (Printf.sprintf "%s %s split-mono" tname entry.Suite.name)
              `Quick
              (differential
                 ~flow:(fun e ->
                   Flows.split_vector ~target ~profile:Profile.mono e ~scale:1)
                 entry);
            Alcotest.test_case
              (Printf.sprintf "%s %s split-gcc4cli" tname entry.Suite.name)
              `Quick
              (differential
                 ~flow:(fun e ->
                   Flows.split_vector ~target ~profile:Profile.gcc4cli e
                     ~scale:1)
                 entry);
            Alcotest.test_case
              (Printf.sprintf "%s %s split-scalar-mono" tname entry.Suite.name)
              `Quick
              (differential
                 ~flow:(fun e ->
                   Flows.split_scalar ~target ~profile:Profile.mono e ~scale:1)
                 entry);
          ])
        Suite.all)
    Targets.all

let speedup_sanity_case () =
  (* Vectorization must actually speed up an easy kernel on SSE. *)
  let entry = Suite.find "saxpy_fp" in
  let target = Vapor_targets.Sse.target in
  let s = Flows.native_scalar ~target entry ~scale:2 in
  let v = Flows.native_vector ~target entry ~scale:2 in
  let speedup = float_of_int s.Flows.cycles /. float_of_int v.Flows.cycles in
  if speedup < 1.5 then
    fail (Printf.sprintf "saxpy SSE speedup only %.2fx" speedup)

let scalar_target_case () =
  (* On the no-SIMD target the split bytecode must scalarize and cost about
     the same as native scalar code (low scalarization overhead). *)
  let entry = Suite.find "dscal_fp" in
  let target = Targets.target in
  let s = Flows.native_scalar ~target entry ~scale:2 in
  let v =
    Flows.split_vector ~target ~profile:Profile.gcc4cli entry ~scale:2
  in
  Alcotest.check Alcotest.bool "not vectorized" false v.Flows.vectorized;
  let ratio = float_of_int v.Flows.cycles /. float_of_int s.Flows.cycles in
  if ratio > 1.10 then
    fail (Printf.sprintf "scalarization overhead %.2fx > 1.10x" ratio)

let compile_time_model_case () =
  (* The modeled JIT time is exactly proportional to the bytecode nodes
     processed: compile_time_us = bytecode_nodes * ns_per_node / 1000. *)
  let module Compile = Vapor_jit.Compile in
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let bytecode = (Flows.vectorized_bytecode entry).Vapor_vectorizer.Driver.vkernel in
      let c =
        Compile.compile ~target:Vapor_targets.Sse.target
          ~profile:Profile.gcc4cli bytecode
      in
      if c.Compile.bytecode_nodes <= 0 then
        fail (name ^ ": no bytecode nodes counted");
      let expected =
        float_of_int c.Compile.bytecode_nodes *. Compile.ns_per_node /. 1000.0
      in
      Alcotest.(check (float 1e-6))
        (name ^ " compile time proportional to nodes")
        expected c.Compile.compile_time_us)
    [ "saxpy_fp"; "mmm_fp"; "interp_s16" ]

let vectorized_predicates_case () =
  (* On an all-Vectorize decision list the two predicates must agree. *)
  let module Compile = Vapor_jit.Compile in
  let module Lower = Vapor_jit.Lower in
  let bytecode =
    (Flows.vectorized_bytecode (Suite.find "saxpy_fp"))
      .Vapor_vectorizer.Driver.vkernel
  in
  let c =
    Compile.compile ~target:Vapor_targets.Sse.target ~profile:Profile.gcc4cli
      bytecode
  in
  let all_vectorize =
    c.Compile.decisions <> []
    && List.for_all
         (function Lower.Vectorize -> true | Lower.Scalarize _ -> false)
         c.Compile.decisions
  in
  Alcotest.check Alcotest.bool "saxpy_fp sse lowers all-Vectorize" true
    all_vectorize;
  Alcotest.check Alcotest.bool "fully_vectorized" true
    (Compile.fully_vectorized c);
  Alcotest.check Alcotest.bool "any_vectorized agrees" true
    (Compile.any_vectorized c);
  (* and on the no-SIMD target both must be false *)
  let c0 =
    Compile.compile ~target:Targets.target ~profile:Profile.gcc4cli bytecode
  in
  Alcotest.check Alcotest.bool "scalar target not fully vectorized" false
    (Compile.fully_vectorized c0);
  Alcotest.check Alcotest.bool "scalar target not any vectorized" false
    (Compile.any_vectorized c0)

let altivec_dp_case () =
  (* AltiVec has no doubles: saxpy_dp must scalarize yet stay correct. *)
  let entry = Suite.find "saxpy_dp" in
  let target = Vapor_targets.Altivec.target in
  let v =
    Flows.split_vector ~target ~profile:Profile.gcc4cli entry ~scale:1
  in
  Alcotest.check Alcotest.bool "scalarized" false v.Flows.vectorized

let () =
  Alcotest.run "jit"
    [
      "end-to-end", per_target_tests;
      ( "sanity",
        [
          Alcotest.test_case "sse saxpy speedup" `Quick speedup_sanity_case;
          Alcotest.test_case "scalar target overhead" `Quick
            scalar_target_case;
          Alcotest.test_case "altivec doubles scalarize" `Quick
            altivec_dp_case;
          Alcotest.test_case "compile time model" `Quick
            compile_time_model_case;
          Alcotest.test_case "vectorized predicates" `Quick
            vectorized_predicates_case;
        ] );
    ]
