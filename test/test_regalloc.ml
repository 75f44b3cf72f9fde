(* Register allocation: golden allocations of the whole suite (the
   allocator's output is pinned byte for byte), allocation as a
   semantics-free rewrite (virtual-register code and its allocated form
   compute bit-equal results, also at the minimum budget where every class
   spills), and seeded parameters that the body never reads. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Flows = Vapor_harness.Flows
module Exec = Vapor_harness.Exec
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Lower = Vapor_jit.Lower
module Emit = Vapor_jit.Emit
module Target = Vapor_targets.Target
module Targets = Vapor_targets.Scalar_target
module Minstr = Vapor_machine.Minstr
module Mfun = Vapor_machine.Mfun
module Layout = Vapor_machine.Layout
module Regalloc = Vapor_machine.Regalloc
module Simulator = Vapor_machine.Simulator

let fail = Alcotest.fail
let profiles = Profile.[ mono; gcc4cli; native; avx_split ]

let vkernel entry = (Flows.vectorized_bytecode entry).Vapor_vectorizer.Driver.vkernel

(* Every concrete machine the fleet can run: the registry's fixed targets
   and each implemented SVE vector length. *)
let variants =
  let sve = Vapor_targets.Sve.target in
  [
    Targets.target; Vapor_targets.Sse.target; Vapor_targets.Avx.target;
    Vapor_targets.Neon.target; Vapor_targets.Altivec.target;
    Target.resolve ~vl:16 sve; Target.resolve ~vl:32 sve;
    Target.resolve ~vl:64 sve; Vapor_targets.Avx512.target;
  ]

(* Everything allocation decides: the code, the parameter homes, the
   scalar spill area and the vector spill slots. *)
let allocation_text (f : Mfun.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Mfun.to_string f);
  List.iter
    (fun (name, sty, loc) ->
      Buffer.add_string b
        (Printf.sprintf "param %s %s %s\n" name (Src_type.to_string sty)
           (match loc with
           | Mfun.In_reg r -> Minstr.reg_to_string r
           | Mfun.In_stack (ty, off) ->
             Printf.sprintf "stack.%s@%d" (Src_type.to_string ty) off)))
    f.Mfun.param_regs;
  Buffer.add_string b
    (Printf.sprintf "stack_bytes %d n_vspill %d\n" f.Mfun.stack_bytes
       f.Mfun.n_vspill);
  Buffer.contents b

(* (kernel, target, profile, allocated function) over the golden cases. *)
let allocated_suite =
  lazy
    (List.concat_map
       (fun entry ->
         let vk = vkernel entry in
         List.concat_map
           (fun (t : Target.t) ->
             List.map
               (fun (p : Profile.t) ->
                 let c = Compile.compile ~target:t ~profile:p vk in
                 entry.Suite.name, t.Target.name, p.Profile.name, c.Compile.mfun)
               profiles)
           variants)
       Suite.all)

let golden_file = "data/regalloc_golden.txt"

(* The golden file: '#' comment lines, then "kernel target profile md5". *)
let read_golden () =
  let ic = open_in golden_file in
  let rec lines acc =
    match input_line ic with
    | line -> lines (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  lines []

let golden_case () =
  let header, want =
    List.partition (fun l -> l = "" || l.[0] = '#') (read_golden ())
  in
  let got =
    List.map
      (fun (k, t, p, f) ->
        String.concat " "
          [ k; t; p; Digest.to_hex (Digest.string (allocation_text f)) ])
      (Lazy.force allocated_suite)
  in
  if want <> got then begin
    (* An intentional allocation change replaces the golden file with this. *)
    let actual = Filename.concat (Sys.getcwd ()) "regalloc_golden.actual" in
    let oc = open_out actual in
    List.iter (fun l -> output_string oc (l ^ "\n")) (header @ got);
    close_out oc;
    let differ =
      if List.length want <> List.length got then "case lists differ"
      else
        let n = List.fold_left2 (fun n a b -> if a = b then n else n + 1) 0 want got in
        Printf.sprintf "%d/%d allocations differ" n (List.length got)
    in
    fail (Printf.sprintf "%s from %s; current digests in %s" differ golden_file actual)
  end

(* Seeding one parameter must never overwrite another. *)
let check_params_distinct what (f : Mfun.t) =
  let regs =
    List.filter_map
      (fun (_, _, loc) ->
        match loc with
        | Mfun.In_reg r -> Some r
        | Mfun.In_stack _ -> None)
      f.Mfun.param_regs
  in
  if List.length (List.sort_uniq compare regs) <> List.length regs then
    fail (what ^ ": two parameters share a register")

let params_distinct_case () =
  List.iter
    (fun (k, t, p, f) -> check_params_distinct (String.concat " " [ k; t; p ]) f)
    (Lazy.force allocated_suite)

(* --- allocation is semantics-free ---------------------------------------- *)

let arrays_bytes layout mem =
  List.map
    (fun (_, (r : Layout.region)) -> Bytes.sub_string mem r.Layout.base r.Layout.bytes)
    layout.Layout.regions

(* Simulate [f] on fresh suite arguments; the array regions afterwards. *)
let simulate target entry (f : Mfun.t) =
  let arrays, scalars = Exec.split_args (entry.Suite.args ~scale:1) in
  let stack_bytes = max Layout.default_stack_bytes (f.Mfun.stack_bytes + 256) in
  let layout = Layout.plan ~stack_bytes ~policy:Layout.aligned_policy arrays in
  let mem = Layout.materialize layout arrays in
  ignore (Simulator.run target layout mem f ~scalar_args:scalars);
  arrays_bytes layout mem

(* Virtual-register code from [Emit.run] against its allocated form, on
   every suite kernel x 7 targets x 4 profiles.  [budget] None allocates
   as the JIT does; Some b forces budget b. *)
let semantics_free ?budget () =
  let cases = ref 0 in
  List.iter
    (fun entry ->
      let vk = vkernel entry in
      List.iter
        (fun (t : Target.t) ->
          let target = Target.resolve t in
          List.iter
            (fun (p : Profile.t) ->
              let an =
                Lower.analyze ~force_scalar:(fun _ -> false)
                  ~known_aligned:(fun _ -> true)
                  ~known_disjoint:(fun _ _ -> true) ~target ~profile:p vk
              in
              let virt, _ = Emit.run ~target ~profile:p ~an vk in
              let allocated =
                match budget with
                | None -> (Compile.compile ~target ~profile:p vk).Compile.mfun
                | Some b -> Regalloc.run b virt
              in
              let want = simulate target entry virt in
              let got = simulate target entry allocated in
              incr cases;
              if want <> got then
                fail
                  (Printf.sprintf "%s %s %s: allocated code computes different arrays"
                     entry.Suite.name target.Target.name p.Profile.name))
            profiles)
        Targets.all)
    Suite.all;
  Alcotest.(check int) "cases" (List.length Suite.all * 7 * 4) !cases

let min_budget = { Regalloc.b_gpr = 5; b_fpr = 5; b_vr = 5 }

(* A hand-built function whose register counts understate its vreg ids
   (emit numbers densely and counts exactly; hand-built code need not):
   out[k] = x + 10 + k for k < 3, loop-carried through sparse ids. *)
let sparse_ids_case () =
  let r = Minstr.gpr in
  let instrs =
    Minstr.
      [
        Li (r 3, 10);
        Li (r 40, 0);
        Li (r 41, 3);
        Label 0;
        Sop (Op.Add, Src_type.I32, r 10, r 5, r 3);
        Sop (Op.Add, Src_type.I32, r 10, r 10, r 40);
        Store (Src_type.I32, { (plain_addr "out") with index = Some (r 40); scale = 4 }, r 10);
        Li (r 12, 1);
        Sop (Op.Add, Src_type.I32, r 40, r 40, r 12);
        Br (Op.Lt, r 40, r 41, 0);
      ]
  in
  let virt =
    {
      Mfun.name = "sparse";
      instrs = Array.of_list instrs;
      n_gpr = 42;
      n_fpr = 0;
      n_vr = 1;
      param_regs = [ "x", Src_type.I32, Mfun.In_reg (r 5) ];
      fp_unit = Mfun.Fp_scalar_simd;
      stack_bytes = 0;
      n_vspill = 0;
    }
  in
  let run (f : Mfun.t) =
    let out = Buffer_.create Src_type.I32 4 in
    let layout = Layout.plan ~policy:Layout.aligned_policy [ "out", out ] in
    let mem = Layout.materialize layout [ "out", out ] in
    ignore
      (Simulator.run Vapor_targets.Sse.target layout mem f
         ~scalar_args:[ "x", Value.Int 5 ]);
    Layout.read_back layout mem [ "out", out ];
    Array.map Value.to_int (Buffer_.to_values out)
  in
  let want = [| 15; 16; 17; 0 |] in
  Alcotest.(check (array int)) "virtual registers" want (run virt);
  List.iter
    (fun b ->
      let f = Regalloc.run b { virt with Mfun.n_gpr = 0 } in
      Alcotest.(check (array int))
        (Printf.sprintf "allocated, %d GPRs" b.Regalloc.b_gpr)
        want (run f))
    [ min_budget; { min_budget with Regalloc.b_gpr = 16 } ]

(* --- a seeded parameter the body never reads ----------------------------- *)

let unused_param_src =
  "kernel k(s32 a[], s32 n, s32 unused) { for (i = 0; i < n; i++) { a[i] = a[i] + 1; } }"

let unused_param_case () =
  let k = Vapor_frontend.Typecheck.compile_one unused_param_src in
  let vk = (Vapor_vectorizer.Driver.vectorize k).Vapor_vectorizer.Driver.vkernel in
  let args () =
    [
      "a", Eval.Array (Buffer_.init Src_type.I32 16 (fun _ -> Value.Int 0));
      "n", Eval.Scalar (Value.Int 10);
      "unused", Eval.Scalar (Value.Int 77);
    ]
  in
  let ref_args = args () in
  ignore (Eval.run k ~args:ref_args);
  List.iter
    (fun (t : Target.t) ->
      List.iter
        (fun (p : Profile.t) ->
          let c = Compile.compile ~target:t ~profile:p vk in
          check_params_distinct
            (t.Target.name ^ " " ^ p.Profile.name)
            c.Compile.mfun;
          let got_args = args () in
          ignore (Exec.run (Target.resolve t) c ~args:got_args);
          List.iter2
            (fun (_, want) (_, got) ->
              if not (Buffer_.equal want got) then
                fail
                  (Format.asprintf "%s %s: want %a got %a" t.Target.name
                     p.Profile.name Buffer_.pp want Buffer_.pp got))
            (Suite.arrays_of_args ref_args)
            (Suite.arrays_of_args got_args))
        profiles)
    Targets.all

let () =
  Alcotest.run "regalloc"
    [
      ( "allocation",
        [
          Alcotest.test_case "golden digests" `Quick golden_case;
          Alcotest.test_case "parameters get distinct registers" `Quick
            params_distinct_case;
          Alcotest.test_case "unused parameter" `Quick unused_param_case;
          Alcotest.test_case "vreg ids beyond the counts" `Quick sparse_ids_case;
        ] );
      ( "semantics-free",
        [
          Alcotest.test_case "profile budgets" `Quick (fun () -> semantics_free ());
          Alcotest.test_case "minimum budget" `Quick
            (semantics_free ~budget:min_budget);
        ] );
    ]
