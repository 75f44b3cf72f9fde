(* Vectorizer tests: per-kernel differential semantics (the core property of
   the split layer), vectorization reports, bytecode structure, and the
   size experiment's plumbing. *)

open Vapor_ir
module B = Vapor_vecir.Bytecode
module Veval = Vapor_vecir.Veval
module Driver = Vapor_vectorizer.Driver
module Options = Vapor_vectorizer.Options
module Suite = Vapor_kernels.Suite

let check = Alcotest.check
let fail = Alcotest.fail

let compare_arrays ~eps name ref_args got_args =
  List.iter2
    (fun (n1, b1) (n2, b2) ->
      assert (String.equal n1 n2);
      if not (Buffer_.close ~eps b1 b2) then
        fail
          (Format.asprintf "%s: array %s differs@.ref: %a@.got: %a" name n1
             Buffer_.pp b1 Buffer_.pp b2))
    (Suite.arrays_of_args ref_args)
    (Suite.arrays_of_args got_args)

(* Only FP reductions may differ from the scalar oracle: vector partial
   sums reassociate the additions.  Everything else must match bit for
   bit. *)
let eps_for vkernel = if B.has_fp_reduction vkernel then 1e-3 else 0.0

let differential_case ?(opts = Options.default) entry mode () =
  let k = Suite.kernel entry in
  let { Driver.vkernel; _ } = Driver.vectorize ~opts k in
  let ref_args = entry.Suite.args ~scale:1 in
  let got_args = Eval.copy_args ref_args in
  ignore (Eval.run k ~args:ref_args);
  (try ignore (Veval.run vkernel ~mode ~args:got_args) with
  | Veval.Error msg -> fail (entry.Suite.name ^ ": veval error: " ^ msg));
  compare_arrays ~eps:(eps_for vkernel) entry.Suite.name ref_args got_args

let modes =
  [
    "vs8", Veval.Vector 8;
    "vs16", Veval.Vector 16;
    "vs32", Veval.Vector 32;
    "scalarized", Veval.Scalarized;
  ]

let differential_tests =
  List.concat_map
    (fun entry ->
      List.map
        (fun (mname, mode) ->
          Alcotest.test_case
            (Printf.sprintf "%s @ %s" entry.Suite.name mname)
            `Quick
            (differential_case entry mode))
        modes)
    Suite.all

(* Same property with hints disabled (the ablation flow). *)
let ablation_tests =
  List.map
    (fun entry ->
      Alcotest.test_case
        (Printf.sprintf "%s no-hints @ vs16" entry.Suite.name)
        `Quick
        (differential_case ~opts:Options.no_hints entry (Veval.Vector 16)))
    Suite.all

(* Guard-false executions must also be correct (fallback path). *)
let fallback_case entry () =
  let k = Suite.kernel entry in
  let { Driver.vkernel; _ } = Driver.vectorize k in
  let ref_args = entry.Suite.args ~scale:1 in
  let got_args = Eval.copy_args ref_args in
  ignore (Eval.run k ~args:ref_args);
  ignore
    (Veval.run
       ~guard_true:(fun _ -> false)
       vkernel ~mode:(Veval.Vector 16) ~args:got_args);
  compare_arrays ~eps:1e-3 entry.Suite.name ref_args got_args

let fallback_tests =
  List.map
    (fun entry ->
      Alcotest.test_case
        (Printf.sprintf "%s fallback @ vs16" entry.Suite.name)
        `Quick (fallback_case entry))
    Suite.all

(* --- expectations about what vectorizes ------------------------------- *)

let vectorized_loops result =
  List.filter_map
    (fun (e : Driver.report_entry) ->
      match e.Driver.status with
      | Driver.Vectorized fs -> Some (e.Driver.loop_index, fs)
      | Driver.Not_vectorized _ -> None)
    result.Driver.report

let expect_vectorized = [
    "dissolve_s8"; "sad_s8"; "sfir_s16"; "interp_s16"; "mix_streams_s16";
    "convolve_s32"; "alvinn_s32fp"; "dct_s32fp"; "dissolve_fp"; "sfir_fp";
    "interp_fp"; "mmm_fp"; "dscal_fp"; "saxpy_fp"; "dscal_dp"; "saxpy_dp";
    "correlation_fp"; "covariance_fp"; "2mm_fp"; "3mm_fp"; "atax_fp";
    "gesummv_fp"; "doitgen_fp"; "gemm_fp"; "gemver_fp"; "bicg_fp";
    "gramschmidt_fp"; "jacobi_fp";
  ]

(* The paper reports these as not vectorizable without loop skewing. *)
let expect_scalar = [ "lu_fp"; "ludcmp_fp"; "seidel_fp"; "adi_fp" ]

let vector_status_case entry () =
  let result = Driver.vectorize (Suite.kernel entry) in
  let n = List.length (vectorized_loops result) in
  if List.mem entry.Suite.name expect_vectorized then
    check Alcotest.bool
      (entry.Suite.name ^ " vectorizes at least one loop\n"
     ^ Driver.report_to_string result)
      true (n > 0)
  else if List.mem entry.Suite.name expect_scalar then
    check Alcotest.int
      (entry.Suite.name ^ " stays scalar\n" ^ Driver.report_to_string result)
      0 n
  else ()

let status_tests =
  List.map
    (fun entry ->
      Alcotest.test_case ("status " ^ entry.Suite.name) `Quick
        (vector_status_case entry))
    Suite.all

(* Specific feature expectations. *)
let find_report name =
  Driver.vectorize (Suite.kernel (Suite.find name))

let test_feature expect name () =
  let result = find_report name in
  let feats = List.concat_map snd (vectorized_loops result) in
  check Alcotest.bool
    (Printf.sprintf "%s has feature %s (got: %s)" name expect
       (String.concat ", " feats))
    true (List.mem expect feats)

(* Bytecode of a vectorized kernel must round-trip the codec. *)
let codec_case entry () =
  let { Driver.vkernel; _ } = Driver.vectorize (Suite.kernel entry) in
  let encoded = Vapor_vecir.Encode.encode vkernel in
  let decoded = Vapor_vecir.Encode.decode encoded in
  check Alcotest.bool (entry.Suite.name ^ " codec roundtrip") true
    (decoded = vkernel);
  (* and re-encoding is stable *)
  check Alcotest.string
    (entry.Suite.name ^ " stable")
    encoded
    (Vapor_vecir.Encode.encode decoded)

let codec_tests =
  List.map
    (fun entry ->
      Alcotest.test_case ("codec " ^ entry.Suite.name) `Quick
        (codec_case entry))
    Suite.all

(* Bytecode growth: vectorized bytecode is larger than scalar bytecode,
   within the ballpark the paper reports (~5x on average). *)
let test_bytecode_growth () =
  let ratios =
    List.filter_map
      (fun entry ->
        let r = Driver.vectorize (Suite.kernel entry) in
        if vectorized_loops r = [] then None
        else
          Some
            (float_of_int (Vapor_vecir.Encode.size r.Driver.vkernel)
            /. float_of_int (Vapor_vecir.Encode.size r.Driver.scalar_bytecode)))
      Suite.all
  in
  let avg = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
  if avg < 2.0 || avg > 10.0 then
    fail (Printf.sprintf "average bytecode growth %.2fx outside [2,10]" avg)

(* --- golden structure: the paper's Figure 3a shape --------------------- *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* A misaligned-load reduction kernel must produce exactly the Figure 3a
   idiom sequence: get_VF, init_reduc, get_rt + align_load preloads, a
   software-pipelined realign_load in the loop, reduc_plus afterwards, and
   loop_bound-guarded scalar loops. *)
let test_figure3a_shape () =
  let src =
    {|kernel fig2a(f32 a[], f32 out[], s32 n) {
        f32 sum = 0.0;
        for (i = 0; i < n; i++) { sum += a[i + 2]; }
        out[0] = sum;
      }|}
  in
  let k = Vapor_frontend.Typecheck.compile_one src in
  let { Driver.vkernel; _ } = Driver.vectorize k in
  let text = Vapor_vecir.Vec_print.to_string vkernel in
  let contains needle = contains_substring text needle in
  List.iter
    (fun needle ->
      if not (contains needle) then
        Alcotest.fail (Printf.sprintf "bytecode lacks %S:\n%s" needle text))
    [
      "get_VF(f32)";
      "init_reduc(f32, sum";
      "get_rt(f32, &a[";
      "align_load(f32, &a[";
      "realign_load(";
      "reduc_plus(f32";
      "loop_bound(";
      "version_guard_aligned(";
      "mis=8,mod=32";
    ]

let test_figure3a_aligned_kernel_uses_aload () =
  (* With offset 0 the loads must be plain aload, with no realignment. *)
  let src =
    {|kernel aligned(f32 a[], f32 out[], s32 n) {
        f32 sum = 0.0;
        for (i = 0; i < n; i++) { sum += a[i]; }
        out[0] = sum;
      }|}
  in
  let k = Vapor_frontend.Typecheck.compile_one src in
  let { Driver.vkernel; _ } = Driver.vectorize k in
  let text = Vapor_vecir.Vec_print.to_string vkernel in
  let contains needle = contains_substring text needle in
  Alcotest.(check bool) "has aload" true (contains "aload(f32");
  Alcotest.(check bool) "guarded version has no realign" true
    (not (contains "realign_load") || contains "mis=?,mod=0")

let () =
  Alcotest.run "vectorizer"
    [
      "differential", differential_tests;
      "ablation", ablation_tests;
      "fallback", fallback_tests;
      "status", status_tests;
      ( "features",
        [
          Alcotest.test_case "sfir_s16 dot product" `Quick
            (test_feature "reduction" "sfir_s16");
          Alcotest.test_case "interp strided" `Quick
            (test_feature "strided" "interp_s16");
          Alcotest.test_case "mix_streams slp" `Quick
            (test_feature "slp(g=4)" "mix_streams_s16");
          Alcotest.test_case "alvinn outer" `Quick
            (test_feature "outer-loop" "alvinn_s32fp");
          Alcotest.test_case "mmm runtime peel" `Quick
            (test_feature "runtime-peel" "mmm_fp");
        ] );
      "codec", codec_tests;
      ( "size",
        [ Alcotest.test_case "bytecode growth" `Quick test_bytecode_growth ] );
      ( "golden",
        [
          Alcotest.test_case "figure 3a shape" `Quick test_figure3a_shape;
          Alcotest.test_case "aligned kernel uses aload" `Quick
            test_figure3a_aligned_kernel_uses_aload;
        ] );
    ]
