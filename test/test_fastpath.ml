(* Tests for the fast-path execution engine: the slot-compiled interpreter
   (Vfast) against the reference Veval, the pre-resolved simulator plans
   against the original Simulator.run, and the sharded replay driver
   against the single-domain service. *)

open Vapor_ir
module Suite = Vapor_kernels.Suite
module Driver = Vapor_vectorizer.Driver
module Flows = Vapor_harness.Flows
module Veval = Vapor_vecir.Veval
module Vfast = Vapor_vecir.Vfast
module Target = Vapor_targets.Target

module Exec = Vapor_harness.Exec
module Compile = Vapor_jit.Compile
module Profile = Vapor_jit.Profile
module Service = Vapor_runtime.Service
module Tiered = Vapor_runtime.Tiered
module Trace = Vapor_runtime.Trace
module Faults = Vapor_runtime.Faults
module Stats = Vapor_runtime.Stats
module Code_cache = Vapor_runtime.Code_cache
module M = Vapor_machine.Minstr
module Mfun = Vapor_machine.Mfun
module Layout = Vapor_machine.Layout
module Simulator = Vapor_machine.Simulator
module Store = Vapor_store.Store

let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bytecode (entry : Suite.entry) =
  (Flows.vectorized_bytecode entry).Driver.vkernel

let veval_mode (target : Target.t) =
  if Target.has_simd target then Veval.Vector target.Target.vs
  else Veval.Scalarized

let arrays = Suite.arrays_of_args

let check_args_bit_equal ctx a b =
  List.iter2
    (fun (n1, b1) (_, b2) ->
      if not (Buffer_.equal b1 b2) then
        fail (Printf.sprintf "%s: array %s differs bitwise" ctx n1))
    (arrays a) (arrays b)

let mode_name = function
  | Veval.Vector vs -> Printf.sprintf "v%d" vs
  | Veval.Scalarized -> "scalarized"

(* The final scalar environments must carry the same bindings. *)
let check_scalars_equal ctx (ref_s : (string, Value.t) Hashtbl.t) fast_s =
  check_int (ctx ^ ": scalar count") (Hashtbl.length ref_s)
    (Hashtbl.length fast_s);
  Hashtbl.iter
    (fun name v ->
      match Hashtbl.find_opt fast_s name with
      | None -> fail (Printf.sprintf "%s: scalar %s missing" ctx name)
      | Some v' ->
        if not (Value.equal v v') then
          fail
            (Printf.sprintf "%s: scalar %s = %s, reference %s" ctx name
               (Value.to_string v') (Value.to_string v)))
    ref_s

(* --- slot-compiled interpreter == reference Veval ---------------------- *)

let vfast_sweep_case () =
  (* Every kernel, every target's vector size plus scalarized mode: the
     slot-compiled body and the reference evaluator must agree bit-for-bit
     on every output buffer and every final scalar. *)
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      List.iter
        (fun (target : Target.t) ->
          List.iter
            (fun mode ->
              let ctx =
                Printf.sprintf "%s/%s/%s" entry.Suite.name
                  target.Target.name (mode_name mode)
              in
              let fast_args = entry.Suite.args ~scale:1 in
              let ref_args = Eval.copy_args fast_args in
              let ref_s = Veval.run vk ~mode ~args:ref_args in
              let compiled = Vfast.compile vk ~mode in
              let fast_s = Vfast.run compiled ~args:fast_args in
              check_args_bit_equal ctx ref_args fast_args;
              check_scalars_equal ctx ref_s fast_s)
            [ veval_mode target; Veval.Scalarized ])
        Vapor_targets.Scalar_target.all)
    Suite.all

let vfast_guard_false_case () =
  (* With every version guard failing, the fallback branches run; the fast
     path must take them identically. *)
  let guard_true _ = false in
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      let mode = Veval.Vector 16 in
      let ctx = entry.Suite.name ^ "/guard-false" in
      let fast_args = entry.Suite.args ~scale:1 in
      let ref_args = Eval.copy_args fast_args in
      let ref_s = Veval.run ~guard_true vk ~mode ~args:ref_args in
      let compiled = Vfast.compile vk ~mode in
      let fast_s = Vfast.run ~guard_true compiled ~args:fast_args in
      check_args_bit_equal ctx ref_args fast_args;
      check_scalars_equal ctx ref_s fast_s)
    Suite.all

let vfast_reuse_case () =
  (* One compiled body, run repeatedly: runs are independent (fresh
     environment each time) and keep matching the reference. *)
  let entry = Suite.find "sfir_fp" in
  let vk = bytecode entry in
  let mode = Veval.Vector 16 in
  let compiled = Vfast.compile vk ~mode in
  for i = 1 to 3 do
    let fast_args = entry.Suite.args ~scale:1 in
    let ref_args = Eval.copy_args fast_args in
    let ref_s = Veval.run vk ~mode ~args:ref_args in
    let fast_s = Vfast.run compiled ~args:fast_args in
    let ctx = Printf.sprintf "sfir_fp run %d" i in
    check_args_bit_equal ctx ref_args fast_args;
    check_scalars_equal ctx ref_s fast_s
  done

let error_message body_error args_of =
  match body_error args_of with
  | exception Veval.Error m -> Some m
  | _ -> None

let vfast_error_equiv_case () =
  (* Faults must match the reference exactly: same exception, same
     message, for missing arguments, kind mismatches, and argument-order
     robustness. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let mode = Veval.Vector 16 in
  let compiled = Vfast.compile vk ~mode in
  let cases =
    [
      "missing", (fun args -> List.tl args);
      ( "kind-mismatch",
        fun args ->
          List.map
            (fun (n, a) ->
              match a with
              | Eval.Array _ -> n, Eval.Scalar (Value.Int 0)
              | other -> n, other)
            args );
    ]
  in
  List.iter
    (fun (name, mangle) ->
      let ref_err =
        error_message
          (fun args -> ignore (Veval.run vk ~mode ~args))
          (mangle (entry.Suite.args ~scale:1))
      in
      let fast_err =
        error_message
          (fun args -> ignore (Vfast.run compiled ~args))
          (mangle (entry.Suite.args ~scale:1))
      in
      check_bool (name ^ ": reference faulted") true (ref_err <> None);
      Alcotest.(check (option string)) (name ^ ": same message") ref_err
        fast_err)
    cases;
  (* Argument order must not matter (assoc lookup, like the reference). *)
  let fast_args = List.rev (entry.Suite.args ~scale:1) in
  let ref_args = Eval.copy_args fast_args in
  ignore (Veval.run vk ~mode ~args:ref_args);
  ignore (Vfast.run compiled ~args:fast_args);
  check_args_bit_equal "reversed args" ref_args fast_args

let vfast_corrupt_case () =
  (* A corrupted slot body must produce output the reference would not —
     the detectability contract the differential oracle relies on. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let mode = Veval.Vector 16 in
  let bad = Vfast.corrupt (Vfast.compile vk ~mode) in
  let fast_args = entry.Suite.args ~scale:1 in
  let ref_args = Eval.copy_args fast_args in
  ignore (Veval.run vk ~mode ~args:ref_args);
  ignore (Vfast.run bad ~args:fast_args);
  let differs =
    List.exists2
      (fun (_, b1) (_, b2) -> not (Buffer_.equal b1 b2))
      (arrays ref_args) (arrays fast_args)
  in
  check_bool "corrupted body differs from reference" true differs

(* --- pre-resolved plans == reference simulator ------------------------- *)

let plan_sweep_case () =
  (* Every kernel x target x profile x scale: the plan-driven [Exec.run]
     must report the same cycles and instructions as the pre-plan
     [Exec.run_reference], and leave bit-identical buffers.  Scale 2 runs
     epilogues and masked tails at a second trip count. *)
  List.iter
    (fun (entry : Suite.entry) ->
      let vk = bytecode entry in
      List.iter
        (fun (target : Target.t) ->
          List.iter
            (fun (profile : Profile.t) ->
              let compiled = Compile.compile ~target ~profile vk in
              List.iter
                (fun scale ->
                  let ctx =
                    Printf.sprintf "%s/%s/%s/x%d" entry.Suite.name
                      target.Target.name profile.Profile.name scale
                  in
                  let fast_args = entry.Suite.args ~scale in
                  let ref_args = Eval.copy_args fast_args in
                  let rr = Exec.run_reference target compiled ~args:ref_args in
                  let rf = Exec.run target compiled ~args:fast_args in
                  check_int (ctx ^ ": cycles") rr.Exec.cycles rf.Exec.cycles;
                  check_int (ctx ^ ": instructions") rr.Exec.instructions
                    rf.Exec.instructions;
                  check_args_bit_equal ctx ref_args fast_args)
                [ 1; 2 ])
            [ Profile.mono; Profile.gcc4cli; Profile.native; Profile.avx_split ])
        Vapor_targets.Scalar_target.all)
    Suite.all

(* --- plans are exact at the fuel boundary and on faults ----------------- *)

(* A fresh layout and memory image over [arrays], sized as [Exec] sizes
   them for a function with [stack_bytes] of spill area. *)
let image ?(stack_bytes = 0) arrays =
  let stack_bytes = max Layout.default_stack_bytes (stack_bytes + 256) in
  let layout = Layout.plan ~stack_bytes ~policy:Layout.aligned_policy arrays in
  layout, Layout.materialize layout arrays

(* One run of an engine on a fresh image, summed up as cycles,
   instructions and a digest of the final memory, or as the exception it
   raised, message included.  [simulate] is [Simulator.run] or
   [Simulator.run_plan] applied to everything but the image. *)
let outcome ?stack_bytes ~arrays simulate =
  let layout, mem = image ?stack_bytes arrays in
  match simulate layout mem with
  | (r : Simulator.result) ->
    Printf.sprintf "ok cycles=%d instructions=%d mem=%s" r.Simulator.r_cycles
      r.Simulator.r_instructions (Digest.to_hex (Digest.bytes mem))
  | exception Simulator.Fault m -> "fault: " ^ m
  | exception e -> "exception: " ^ Printexc.to_string e

let reference_outcome ?stack_bytes ?fuel ~target ~arrays ~scalars f =
  outcome ?stack_bytes ~arrays (fun layout mem ->
      Simulator.run ?fuel target layout mem f ~scalar_args:scalars)

let plan_outcome ?stack_bytes ?fuel ~arrays ~scalars plan =
  outcome ?stack_bytes ~arrays (fun layout mem ->
      Simulator.run_plan ?fuel plan layout mem ~scalar_args:scalars)

(* Run [f] under both engines at each fuel and require the same outcome.
   [None] is the default fuel. *)
let check_engines_agree ctx ?stack_bytes ~target ~arrays ~scalars f fuels =
  let plan = Simulator.prepare ~target f in
  List.iter
    (fun fuel ->
      let fuel_s =
        match fuel with Some n -> string_of_int n | None -> "default"
      in
      check_string
        (Printf.sprintf "%s fuel=%s" ctx fuel_s)
        (reference_outcome ?stack_bytes ?fuel ~target ~arrays ~scalars f)
        (plan_outcome ?stack_bytes ?fuel ~arrays ~scalars plan))
    fuels

let check_prefix ctx prefix s =
  if not (String.starts_with ~prefix s) then
    fail (Printf.sprintf "%s: got %S, expected %S..." ctx s prefix)

let plan_fuel_edges_case () =
  (* A sample of suite kernels on all seven targets, with fuel N-2, N-1, N
     and N+1 around the reference instruction count N: N-2 is the largest
     fuel that faults, and the plan must fault with the same message. *)
  let sample =
    [ "saxpy_fp"; "interp_s16"; "sad_s8"; "dissolve_s8"; "jacobi_fp";
      "mix_streams_s16"; "stereo_gain" ]
  in
  List.iter
    (fun name ->
      let entry = Suite.find name in
      let vk = bytecode entry in
      let arrays, scalars = Exec.split_args (entry.Suite.args ~scale:1) in
      List.iter
        (fun (target : Target.t) ->
          let compiled = Compile.compile ~target ~profile:Profile.mono vk in
          let f = compiled.Compile.mfun in
          let stack_bytes = f.Mfun.stack_bytes in
          let n =
            let layout, mem = image ~stack_bytes arrays in
            (Simulator.run target layout mem f ~scalar_args:scalars)
              .Simulator.r_instructions
          in
          let ctx = Printf.sprintf "%s/%s" name target.Target.name in
          check_engines_agree ctx ~stack_bytes ~target ~arrays ~scalars f
            [ Some (n - 2); Some (n - 1); Some n; Some (n + 1) ];
          check_prefix (ctx ^ " fuel N-2") "fault: fuel exhausted"
            (plan_outcome ~stack_bytes ~fuel:(n - 2) ~arrays ~scalars
               compiled.Compile.plan);
          check_prefix (ctx ^ " fuel N-1") "ok"
            (plan_outcome ~stack_bytes ~fuel:(n - 1) ~arrays ~scalars
               compiled.Compile.plan))
        Vapor_targets.Scalar_target.all)
    sample

let mfun instrs =
  {
    Mfun.name = "edge";
    instrs = Array.of_list instrs;
    n_gpr = 8;
    n_fpr = 4;
    n_vr = 4;
    param_regs = [];
    fp_unit = Mfun.Fp_scalar_simd;
    stack_bytes = 64;
    n_vspill = 2;
  }

let sse = Vapor_targets.Sse.target
let every_fuel = None :: List.init 16 (fun i -> Some (i - 1))

let plan_oob_at_fuel_case () =
  (* An out-of-bounds load in the middle of a straight-line block, inside
     a loop: at each fuel the fault is either the load's or the fuel's,
     whichever the reference reaches first. *)
  let out = Buffer_.create Src_type.I32 4 in
  let g = M.gpr in
  (* The second trip's indexed load lands past the end of memory, as the
     13th instruction executed. *)
  let f =
    mfun
      [
        M.Li (g 0, 0);
        M.Li (g 1, 1 lsl 20);
        M.Label 1;
        M.Li (g 2, 1 lsl 16);
        M.Load (Src_type.I32, g 3, { (M.plain_addr "out") with M.disp = 4 });
        M.Load
          (Src_type.I32, g 4, { (M.plain_addr "out") with M.base = Some (g 0) });
        M.Li (g 5, 1);
        M.Sop (Op.Add, Src_type.I64, g 0, g 0, g 2);
        M.Br (Op.Lt, g 0, g 1, 1);
      ]
  in
  let arrays = [ "out", out ] in
  check_engines_agree "oob load" ~target:sse ~arrays ~scalars:[] f every_fuel;
  let plan = Simulator.prepare ~target:sse f in
  check_prefix "fuel 11 stops before the load" "fault: fuel exhausted"
    (plan_outcome ~fuel:11 ~arrays ~scalars:[] plan);
  check_prefix "fuel 12 reaches the load" "fault: load at address"
    (plan_outcome ~fuel:12 ~arrays ~scalars:[] plan)

let plan_branch_ops_case () =
  (* Each comparison a [Br] can make, at a loop's back edge: the trip
     count lands in memory, and a loop that never exits runs out of fuel
     at the same instruction in both engines. *)
  let out = Buffer_.create Src_type.I64 1 in
  let g = M.gpr in
  List.iter
    (fun op ->
      let f =
        mfun
          [
            M.Li (g 0, 0);
            M.Li (g 1, 3);
            M.Li (g 2, 1);
            M.Label 1;
            M.Sop (Op.Add, Src_type.I64, g 0, g 0, g 2);
            M.Store (Src_type.I64, M.plain_addr "out", g 0);
            M.Br (op, g 0, g 1, 1);
          ]
      in
      check_engines_agree
        ("br " ^ Op.binop_to_string op)
        ~target:sse ~arrays:[ "out", out ] ~scalars:[] f
        [ Some 7; Some 60 ])
    [ Op.Eq; Op.Ne; Op.Lt; Op.Le; Op.Gt; Op.Ge; Op.Add ]

let plan_lazy_symbol_case () =
  (* A symbol the layout does not know faults only where an address uses
     it: behind an untaken branch the run succeeds, on the taken path it
     raises Layout.base_of's own exception, for the constant [sym+disp]
     and the register-based address shapes alike. *)
  let out = Buffer_.create Src_type.I64 2 in
  let g = M.gpr in
  let body taken ghost_addr =
    mfun
      [
        M.Li (g 0, 0);
        M.Li (g 1, (if taken then 0 else 1));
        M.Br (Op.Eq, g 0, g 1, 1);
        M.Jmp 2;
        M.Label 1;
        M.Li (g 2, 5);
        M.Load (Src_type.I64, g 3, ghost_addr);
        M.Label 2;
        M.Store (Src_type.I64, M.plain_addr "out", g 1);
      ]
  in
  List.iter
    (fun (label, addr) ->
      List.iter
        (fun taken ->
          check_engines_agree
            (Printf.sprintf "ghost %s taken=%b" label taken)
            ~target:sse ~arrays:[ "out", out ] ~scalars:[] (body taken addr)
            every_fuel)
        [ false; true ])
    [
      "const", { (M.plain_addr "ghost") with M.disp = 8 };
      "based", { (M.plain_addr "ghost") with M.base = Some (g 2) };
    ];
  check_prefix "ghost symbol raises on the taken path"
    "exception: Invalid_argument"
    (plan_outcome ~arrays:[ "out", out ] ~scalars:[]
       (Simulator.prepare ~target:sse (body true (M.plain_addr "ghost"))))

let plan_undefined_vector_case () =
  (* Reading a never-written vector register inside a threaded block
     faults with the reference message, whichever kind of action reads
     it. *)
  let out = Buffer_.create Src_type.F32 8 in
  let g = M.gpr and v = M.vr in
  let prefix =
    [
      M.Li (g 0, 3);
      M.VLoad (M.VM_aligned, Src_type.F32, v 0, M.plain_addr "out");
    ]
  in
  List.iter
    (fun (label, ins) ->
      check_engines_agree ("undefined vr: " ^ label) ~target:sse
        ~arrays:[ "out", out ] ~scalars:[]
        (mfun (prefix @ [ ins; M.Li (g 1, 4) ]))
        every_fuel)
    [
      "vop", M.Vop (Op.Add, Src_type.F32, v 2, v 0, v 1);
      "vmov", M.Mov (v 2, v 3);
      "vspill", M.VSpill (0, v 1);
      "vstore", M.VStore (M.VM_aligned, Src_type.F32, M.plain_addr "out", v 3);
      "vreduce", M.Vreduce (Op.Add, Src_type.F32, M.fpr 0, v 1);
    ];
  check_string "vop message" "fault: use of undefined vector register v1"
    (plan_outcome ~arrays:[ "out", out ] ~scalars:[]
       (Simulator.prepare ~target:sse
          (mfun (prefix @ [ M.Vop (Op.Add, Src_type.F32, v 2, v 0, v 1) ]))))

(* --- replay: fast engine and shards are report-identical ---------------- *)

let replay_trace () = Trace.standard ~length:300 ~n_targets:1 ()

let replay_cfg engine =
  {
    (Service.default_config ~targets:[ Vapor_targets.Sse.target ]) with
    Service.cfg_engine = engine;
  }

let replay_engine_equiv_case () =
  (* The fast engine must not be observable in the report: byte-identical
     output to the reference engine over a standard trace. *)
  let trace = replay_trace () in
  let r_ref =
    Service.report_to_string (Service.replay (replay_cfg Tiered.Reference) trace)
  in
  let r_fast =
    Service.report_to_string (Service.replay (replay_cfg Tiered.Fast) trace)
  in
  check_string "fast report == reference report" r_ref r_fast

let replay_domains_case () =
  (* Sharded replay must merge back to the same report for any domain
     count — the determinism contract behind [serve-replay --domains N]. *)
  let trace = replay_trace () in
  let cfg = replay_cfg Tiered.Fast in
  let base =
    Service.report_to_string (Service.replay_sharded ~domains:1 cfg trace)
  in
  List.iter
    (fun d ->
      let r =
        Service.report_to_string (Service.replay_sharded ~domains:d cfg trace)
      in
      check_string (Printf.sprintf "domains=%d report identical" d) base r)
    [ 2; 4 ]

(* --- guarded interplay: corrupted slot bodies are quarantined ----------- *)

let corrupt_slot_quarantine_case () =
  (* A corrupted slot-compiled interpreter body must be caught by the
     differential oracle and quarantined exactly like a corrupted JIT
     body: mismatch counted, kernel quarantined, and the caller handed
     the reference answer. *)
  let entry = Suite.find "saxpy_fp" in
  let vk = bytecode entry in
  let target = Vapor_targets.Sse.target in
  let st = Stats.create () in
  let cache = Code_cache.create ~stats:st () in
  let guard =
    {
      Tiered.g_oracle = Some Tiered.oracle_always;
      g_faults =
        Some (Faults.make { Faults.default_spec with Faults.f_corrupt_rate = 1.0 });
      g_retry_budget = 3;
    }
  in
  let tiered =
    Tiered.create ~stats:st ~guard ~engine:Tiered.Fast ~cache
      ~hotness_threshold:1000 ()
  in
  let fast_args = entry.Suite.args ~scale:1 in
  let ref_args = Eval.copy_args fast_args in
  ignore (Veval.run vk ~mode:(veval_mode target) ~args:ref_args);
  ignore
    (Tiered.invoke tiered ~target ~profile:Profile.gcc4cli vk ~args:fast_args);
  check_bool "oracle mismatch recorded" true
    (Stats.counter st "oracle.mismatches" >= 1);
  check_bool "kernel quarantined" true
    (List.exists
       (fun (s : Tiered.kstate) -> s.Tiered.ks_quarantined)
       (Tiered.states tiered));
  check_args_bit_equal "caller got the reference answer" ref_args fast_args

let slot_cache_counter_case () =
  (* One kernel invoked repeatedly in the interpreter tier compiles its
     slot body once and reuses it on every later invocation. *)
  let entry = Suite.find "sfir_fp" in
  let vk = bytecode entry in
  let target = Vapor_targets.Sse.target in
  let st = Stats.create () in
  let cache = Code_cache.create ~stats:st () in
  let tiered = Tiered.create ~stats:st ~cache ~hotness_threshold:1000 () in
  for _ = 1 to 5 do
    ignore
      (Tiered.invoke tiered ~target ~profile:Profile.gcc4cli vk
         ~args:(entry.Suite.args ~scale:1))
  done;
  check_int "one slot compilation" 1 (Tiered.slot_compiles tiered);
  check_int "four slot hits" 4 (Tiered.slot_hits tiered)

(* --- per-event operands ------------------------------------------------- *)

(* The two buffers hold physically distinct storage. *)
let distinct_storage (a : Buffer_.t) (b : Buffer_.t) =
  match a.Buffer_.data, b.Buffer_.data with
  | Buffer_.Ints x, Buffer_.Ints y -> x != y
  | Buffer_.Floats x, Buffer_.Floats y -> x != y
  | _ -> true

(* Same names, equal scalars, and [Buffer_.equal] arrays in distinct
   storage. *)
let check_fresh_copies ctx a b =
  check_int (ctx ^ ": argument count") (List.length a) (List.length b);
  List.iter2
    (fun (n1, a1) (n2, a2) ->
      check_string (ctx ^ ": argument name") n1 n2;
      match a1, a2 with
      | Eval.Scalar v1, Eval.Scalar v2 ->
        check_bool (Printf.sprintf "%s: scalar %s equal" ctx n1) true
          (Value.equal v1 v2)
      | Eval.Array b1, Eval.Array b2 ->
        check_bool (Printf.sprintf "%s: array %s equal" ctx n1) true
          (Buffer_.equal b1 b2);
        check_bool (Printf.sprintf "%s: array %s distinct" ctx n1) true
          (distinct_storage b1 b2)
      | _ -> fail (Printf.sprintf "%s: argument %s changed kind" ctx n1))
    a b

let builder_purity_case () =
  (* The contract the operand memo and the batch elision rest on: a
     builder is a pure function of (kernel, scale) and every call returns
     fresh storage. *)
  List.iter
    (fun (entry : Suite.entry) ->
      List.iter
        (fun scale ->
          check_fresh_copies
            (Printf.sprintf "%s/x%d" entry.Suite.name scale)
            (entry.Suite.args ~scale) (entry.Suite.args ~scale))
        [ 1; 2 ])
    Suite.all

(* A store holding a hostile saxpy_fp body for sse/mono: its first
   instruction loads far past the memory image, so every run of it
   faults. *)
let store_with_faulting_saxpy () =
  let vk = bytecode (Suite.find "saxpy_fp") in
  let compiled = Compile.compile ~target:sse ~profile:Profile.mono vk in
  let mfun = compiled.Compile.mfun in
  let oob =
    M.Load
      (Src_type.I32, M.gpr 0, { (M.plain_addr "x") with M.disp = 1 lsl 30 })
  in
  let hostile =
    { compiled with
      Compile.mfun =
        { mfun with Mfun.instrs = Array.append [| oob |] mfun.Mfun.instrs } }
  in
  let store =
    match
      Store.open_store ~create:true (Filename.temp_dir "vapor_operands" ".test")
    with
    | Ok s -> s
    | Error m -> fail ("open_store: " ^ m)
  in
  let ss = Store.session ~id:0 store in
  Store.publish ss
    {
      Store.sk_digest = Vapor_runtime.Digest.(raw (of_vkernel vk));
      sk_target = sse.Target.name;
      sk_profile = Profile.mono.Profile.name;
    }
    vk hostile;
  Store.merge store [ ss ];
  store

let pristine_isolation_case () =
  (* A guarded replay that corrupts bodies, catches oracle mismatches
     (whose [restore_args] overwrites the event's buffers) and exec
     faults (a hostile stored body) must leave the shard's pristine
     operands untouched, and every event must get its own buffers. *)
  let trace =
    Trace.standard ~seed:5 ~scales:[ 1; 2 ] ~length:400 ~n_targets:1 ()
  in
  let faults =
    Faults.make { (Faults.chaos_spec ~seed:5) with Faults.f_corrupt_rate = 0.5 }
  in
  let cfg =
    {
      (replay_cfg Tiered.Fast) with
      Service.cfg_hotness = 0;
      cfg_store = Some (store_with_faulting_saxpy ());
      cfg_guard =
        {
          Tiered.g_oracle = Some Tiered.oracle_always;
          g_faults = Some faults;
          g_retry_budget = 3;
        };
    }
  in
  let pool = Service.pool_create cfg ~kernels:trace.Trace.tr_kernels in
  let records =
    List.map (fun ev -> Service.shard_step pool ~shard:0 ev)
      trace.Trace.tr_events
  in
  let count outcome =
    List.length
      (List.filter (fun r -> r.Service.er_outcome = outcome) records)
  in
  check_bool "bodies corrupted" true (Faults.corrupted_count faults > 0);
  check_bool "oracle mismatches" true (count Tiered.Oracle_mismatch > 0);
  check_bool "exec faults" true (count Tiered.Exec_fault > 0);
  (* Every signature the replay saw is memoized by now, so an event's
     operands are copies of the memo: equal to a fresh builder call only
     if no event wrote through to the pristine buffers. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ev : Trace.event) ->
      let kernel = ev.Trace.ev_kernel and scale = ev.Trace.ev_scale in
      if not (Hashtbl.mem seen (kernel, scale)) then begin
        Hashtbl.add seen (kernel, scale) ();
        let ctx = Printf.sprintf "%s/x%d" kernel scale in
        let a = Service.shard_event_args pool ~shard:0 ev in
        check_fresh_copies (ctx ^ " pristine")
          ((Suite.find kernel).Suite.args ~scale) a;
        check_fresh_copies (ctx ^ " two events")
          a (Service.shard_event_args pool ~shard:0 ev)
      end)
    trace.Trace.tr_events;
  check_bool "signatures seen" true (Hashtbl.length seen > 1)

let () =
  Alcotest.run "fastpath"
    [
      ( "vfast",
        [
          Alcotest.test_case "suite x targets x modes bit-equal" `Quick
            vfast_sweep_case;
          Alcotest.test_case "fallback branches bit-equal" `Quick
            vfast_guard_false_case;
          Alcotest.test_case "compiled body reusable" `Quick vfast_reuse_case;
          Alcotest.test_case "faults identical to reference" `Quick
            vfast_error_equiv_case;
          Alcotest.test_case "corrupt body detectable" `Quick
            vfast_corrupt_case;
        ] );
      ( "engine",
        [
          Alcotest.test_case "plans match reference simulator" `Quick
            plan_sweep_case;
          Alcotest.test_case "plans exact at fuel N-2..N+1" `Quick
            plan_fuel_edges_case;
          Alcotest.test_case "oob load at the fuel boundary" `Quick
            plan_oob_at_fuel_case;
          Alcotest.test_case "branch comparisons" `Quick
            plan_branch_ops_case;
          Alcotest.test_case "unresolved symbol faults lazily" `Quick
            plan_lazy_symbol_case;
          Alcotest.test_case "undefined vector register in a block" `Quick
            plan_undefined_vector_case;
          Alcotest.test_case "fast replay report-identical" `Quick
            replay_engine_equiv_case;
          Alcotest.test_case "domains 1/2/4 reports identical" `Quick
            replay_domains_case;
          Alcotest.test_case "corrupt slot body quarantined" `Quick
            corrupt_slot_quarantine_case;
          Alcotest.test_case "slot bodies compiled once" `Quick
            slot_cache_counter_case;
        ] );
      ( "operands",
        [
          Alcotest.test_case "builders pure and fresh" `Quick
            builder_purity_case;
          Alcotest.test_case "pristine operands isolated" `Quick
            pristine_isolation_case;
        ] );
    ]
