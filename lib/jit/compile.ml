(* Top-level online compilation: analyze, emit, allocate registers, and
   estimate JIT compilation time. *)

module B = Vapor_vecir.Bytecode
module Mfun = Vapor_machine.Mfun
module Regalloc = Vapor_machine.Regalloc
module Simulator = Vapor_machine.Simulator
module Target = Vapor_targets.Target

type t = {
  mfun : Mfun.t;
  (* pre-resolved execution plan for [mfun] on the compile target: labels,
     costs and parameter binding resolved once, at compile time *)
  plan : Simulator.plan;
  (* per-region decisions, for reporting *)
  decisions : Lower.decision list;
  (* modeled JIT compilation time, microseconds: proportional to the
     bytecode size processed (Section V-A.c) *)
  compile_time_us : float;
  bytecode_nodes : int;
  (* discovery-order indices of regions demoted to scalar code by the
     scalarize-on-failure recovery ([] on a clean compile) *)
  forced_scalar_regions : int list;
}

(* Where in the pipeline a compile failed, with the original reason. *)
type lower_error = {
  le_stage : [ `Lower | `Emit | `Regalloc | `Injected ];
  le_reason : string;
}

type compile_result = (t, lower_error) result

let stage_name = function
  | `Lower -> "lower"
  | `Emit -> "emit"
  | `Regalloc -> "regalloc"
  | `Injected -> "injected"

let lower_error_to_string e =
  Printf.sprintf "%s: %s" (stage_name e.le_stage) e.le_reason

let ns_per_node = 60.0

(* Compile bytecode for [target] with codegen [profile].  [known_aligned]
   tells which arrays the runtime's allocator controls (and thus aligns);
   others need dynamic guard tests. *)
let compile ?(force_scalar = fun _ -> false) ?(known_aligned = fun _ -> true)
    ?(known_disjoint = fun _ _ -> true) ~(target : Target.t)
    ~(profile : Profile.t) (vk : B.vkernel) : t =
  (* Late-bound targets (SVE) must be pinned to a concrete vector length
     before any code is emitted; for concrete targets this is the identity. *)
  let target = Target.resolve target in
  let module Stage = Vapor_obs.Stage in
  let t0 = Stage.start () in
  let an =
    Lower.analyze ~force_scalar ~target ~profile ~known_aligned
      ~known_disjoint vk
  in
  Stage.record "lower" t0;
  let t0 = Stage.start () in
  let mfun, nodes = Emit.run ~target ~profile ~an vk in
  Stage.record "emit" t0;
  let cap n =
    max 5 (int_of_float (float_of_int n *. profile.Profile.reg_fraction))
  in
  let budget =
    {
      Regalloc.b_gpr = cap target.Target.gprs;
      b_fpr = cap target.Target.fprs;
      b_vr = cap target.Target.vrs;
    }
  in
  let t0 = Stage.start () in
  let mfun = Regalloc.run budget mfun in
  Stage.record "regalloc" t0;
  let n_regions = List.length an.Lower.regions in
  let forced =
    List.filter force_scalar (List.init n_regions (fun i -> i))
  in
  {
    mfun;
    plan = Simulator.prepare ~target mfun;
    decisions = List.map (fun (_, rg) -> rg.Lower.rg_decision) an.Lower.regions;
    compile_time_us = float_of_int nodes *. ns_per_node /. 1000.0;
    bytecode_nodes = nodes;
    forced_scalar_regions = forced;
  }

(* Classify the exceptions the pipeline can raise into a typed error. *)
let classify = function
  | Lower.Error msg -> Some { le_stage = `Lower; le_reason = msg }
  | Emit.Error msg -> Some { le_stage = `Emit; le_reason = msg }
  | Invalid_argument msg ->
    (* regalloc's scratch-exhaustion and layout mistakes surface here *)
    Some { le_stage = `Regalloc; le_reason = msg }
  | Failure msg -> Some { le_stage = `Lower; le_reason = msg }
  | _ -> None

(* Typed-error compilation with per-region scalarize-on-failure.  A clean
   compile is attempt zero; on failure each vector region is demoted to
   scalar code in turn (discovery order), and if no single demotion
   recovers, the whole kernel is scalarized.  A kernel that cannot even
   compile fully scalar is a hard error. *)
let compile_checked ?(known_aligned = fun _ -> true)
    ?(known_disjoint = fun _ _ -> true) ~(target : Target.t)
    ~(profile : Profile.t) (vk : B.vkernel) : compile_result =
  let attempt force_scalar =
    match
      compile ~force_scalar ~known_aligned ~known_disjoint ~target ~profile vk
    with
    | t -> Ok t
    | exception e -> (
      match classify e with
      | Some err -> Error err
      | None -> raise e)
  in
  match attempt (fun _ -> false) with
  | Ok t -> Ok t
  | Error first ->
    (* Count regions with a throwaway fully-scalar analysis; if even that
       fails, the kernel is unloweable and the first error stands. *)
    let n_regions =
      match
        Lower.analyze
          ~force_scalar:(fun _ -> true)
          ~target ~profile ~known_aligned ~known_disjoint vk
      with
      | an -> List.length an.Lower.regions
      | exception _ -> 0
    in
    let rec try_single i =
      if i >= n_regions then None
      else
        match attempt (fun j -> j = i) with
        | Ok t -> Some t
        | Error _ -> try_single (i + 1)
    in
    (match try_single 0 with
    | Some t -> Ok t
    | None when n_regions > 0 -> (
      match attempt (fun _ -> true) with
      | Ok t -> Ok t
      | Error _ -> Error first)
    | None -> Error first)

let fully_vectorized t =
  t.decisions <> []
  && List.for_all (function Lower.Vectorize -> true | _ -> false) t.decisions

let any_vectorized t =
  List.exists (function Lower.Vectorize -> true | _ -> false) t.decisions
