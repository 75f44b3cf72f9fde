(* Executing simulator for the virtual machine ISA with per-instruction
   cycle accounting.  This is the project's stand-in for the paper's
   hardware targets: results must match the IR interpreter exactly (ints)
   or up to reduction reassociation (floats); cycles implement the target
   cost tables. *)

open Vapor_ir
module Target = Vapor_targets.Target

exception Fault of string

let faultf fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

type vval =
  | VInt of int array
  | VFloat of float array
  | VUndef

type state = {
  target : Target.t;
  mutable layout : Layout.t; (* mutable so a prepared plan can reuse one
                                scratch state across runs *)
  mutable mem : Bytes.t;
  gpr : int array;
  fpr : float array;
  vr : vval array;
  vspill : vval array; (* raw vector spill slots *)
  mutable cycles : int;
  mutable executed : int;
}

type result = {
  r_cycles : int;
  r_instructions : int;
}

let lanes st ty = max 1 (st.target.Target.vs / Src_type.size_of ty)

let reg_index (r : Minstr.reg) = r.Minstr.id

let get_gpr st r = st.gpr.(reg_index r)
let set_gpr st r v = st.gpr.(reg_index r) <- v
let get_fpr st r = st.fpr.(reg_index r)
let set_fpr st r v = st.fpr.(reg_index r) <- v
let get_vr st r =
  match st.vr.(reg_index r) with
  | VUndef -> faultf "use of undefined vector register v%d" (reg_index r)
  | v -> v
let set_vr st r v = st.vr.(reg_index r) <- v

let get_scalar st ty r =
  if Src_type.is_float ty then Value.Float (get_fpr st r)
  else Value.Int (get_gpr st r)

let set_scalar st ty r (v : Value.t) =
  if Src_type.is_float ty then set_fpr st r (Value.to_float v)
  else set_gpr st r (Value.to_int v)

let effective st (a : Minstr.addr) =
  let sym = if a.Minstr.sym = "" then 0 else Layout.base_of st.layout a.Minstr.sym in
  let base = match a.Minstr.base with Some r -> get_gpr st r | None -> 0 in
  let index =
    match a.Minstr.index with
    | Some r -> get_gpr st r * a.Minstr.scale
    | None -> 0
  in
  sym + base + index + a.Minstr.disp

let check_bounds st addr bytes what =
  if addr < 0 || addr + bytes > Bytes.length st.mem then
    faultf "%s at address %d (+%d) out of memory" what addr bytes

(* Vector lane accessors built on Value for exact semantics sharing. *)
let vval_get ty v l : Value.t =
  let x =
    match v with
    | VInt a -> Value.Int a.(l)
    | VFloat a -> Value.Float a.(l)
    | VUndef -> faultf "lane read of undefined vector"
  in
  Value.normalize ty x

let vval_lanes = function
  | VInt a -> Array.length a
  | VFloat a -> Array.length a
  | VUndef -> 0

let vval_of_values ty (vs : Value.t array) =
  if Src_type.is_float ty then VFloat (Array.map Value.to_float vs)
  else VInt (Array.map Value.to_int vs)

let vload st kind ty a =
  let ea = effective st a in
  let vs = st.target.Target.vs in
  let ea =
    match kind with
    | Minstr.VM_aligned ->
      if ea mod vs <> 0 then
        if st.target.Target.explicit_realign then ea / vs * vs (* lvx floors *)
        else faultf "aligned vector access to misaligned address %d" ea
      else ea
    | Minstr.VM_misaligned -> ea
  in
  let m = lanes st ty in
  let esize = Src_type.size_of ty in
  check_bounds st ea (m * esize) "vector load";
  vval_of_values ty
    (Array.init m (fun l -> Layout.read_value st.mem ty (ea + (l * esize))))

let vstore st kind ty a v =
  let ea = effective st a in
  let vs = st.target.Target.vs in
  let ea =
    match kind with
    | Minstr.VM_aligned ->
      if ea mod vs <> 0 then
        if st.target.Target.explicit_realign then
          faultf "aligned vector store to misaligned address %d" ea
        else faultf "aligned vector store to misaligned address %d" ea
      else ea
    | Minstr.VM_misaligned -> ea
  in
  let m = lanes st ty in
  let esize = Src_type.size_of ty in
  check_bounds st ea (m * esize) "vector store";
  if vval_lanes v <> m then
    faultf "vector store of %d lanes, expected %d" (vval_lanes v) m;
  for l = 0 to m - 1 do
    Layout.write_value st.mem ty (ea + (l * esize)) (vval_get ty v l)
  done

let widen_exn ty =
  match Src_type.widen ty with
  | Some w -> w
  | None -> faultf "widen of %s" (Src_type.to_string ty)

let narrow_exn ty =
  match Src_type.narrow ty with
  | Some n -> n
  | None -> faultf "narrow of %s" (Src_type.to_string ty)

let half_off h m =
  match h with
  | Minstr.Lo -> 0
  | Minstr.Hi -> m / 2

(* Execute one instruction (no control flow, no cycle accounting). *)
let rec exec st (i : Minstr.t) =
  match i with
  | Minstr.Li (d, v) -> set_gpr st d v
  | Minstr.Lfi (d, v) -> set_fpr st d v
  | Minstr.Mov (d, s) -> (
    match d.Minstr.cls with
    | Minstr.GPR -> set_gpr st d (get_gpr st s)
    | Minstr.FPR -> set_fpr st d (get_fpr st s)
    | Minstr.VR -> set_vr st d (get_vr st s))
  | Minstr.Lea (d, a) -> set_gpr st d (effective st a)
  | Minstr.Sop (op, ty, d, a, b) ->
    set_scalar st ty d (Value.binop ty op (get_scalar st ty a) (get_scalar st ty b))
  | Minstr.Sunop (op, ty, d, s) ->
    set_scalar st ty d (Value.unop ty op (get_scalar st ty s))
  | Minstr.Scmp (op, ty, d, a, b) ->
    set_gpr st d
      (Value.to_int
         (Value.binop ty op (get_scalar st ty a) (get_scalar st ty b)))
  | Minstr.Cmov (d, c, a, b) ->
    let src = if get_gpr st c <> 0 then a else b in
    exec st (Minstr.Mov (d, src))
  | Minstr.Cvt (t1, t2, d, s) ->
    set_scalar st t2 d (Value.convert ~from:t1 ~into:t2 (get_scalar st t1 s))
  | Minstr.Load (ty, d, a) ->
    let ea = effective st a in
    check_bounds st ea (Src_type.size_of ty) "load";
    set_scalar st ty d (Layout.read_value st.mem ty ea)
  | Minstr.Store (ty, a, s) ->
    let ea = effective st a in
    check_bounds st ea (Src_type.size_of ty) "store";
    Layout.write_value st.mem ty ea (get_scalar st ty s)
  | Minstr.VLoad (k, ty, d, a) -> set_vr st d (vload st k ty a)
  | Minstr.VStore (k, ty, a, s) -> vstore st k ty a (get_vr st s)
  | Minstr.Vop (op, ty, d, a, b) ->
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              Value.binop ty op (vval_get ty va l) (vval_get ty vb l))))
  | Minstr.Vunop (op, ty, d, s) ->
    let v = get_vr st s in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l -> Value.unop ty op (vval_get ty v l))))
  | Minstr.Vshift (op, ty, d, s, amt) ->
    let v = get_vr st s in
    let a = Value.Int (get_gpr st amt) in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l -> Value.binop ty op (vval_get ty v l) a)))
  | Minstr.Vsplat (ty, d, s) ->
    let x = Value.normalize ty (get_scalar st ty s) in
    set_vr st d (vval_of_values ty (Array.make (lanes st ty) x))
  | Minstr.Viota (ty, d, s, inc) ->
    let x = get_gpr st s in
    set_vr st d
      (vval_of_values ty
         (Array.init (lanes st ty) (fun l ->
              Value.Int (Src_type.normalize_int ty (x + (l * inc))))))
  | Minstr.Vinsert (ty, d, v, n, s) ->
    let base = get_vr st v in
    let m = lanes st ty in
    if n < 0 || n >= m then faultf "vinsert lane %d out of %d" n m;
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              if l = n then Value.normalize ty (get_scalar st ty s)
              else vval_get ty base l)))
  | Minstr.Vreduce (op, ty, d, s) ->
    let v = get_vr st s in
    let m = lanes st ty in
    let acc = ref (vval_get ty v 0) in
    for l = 1 to m - 1 do
      acc := Value.binop ty op !acc (vval_get ty v l)
    done;
    set_scalar st ty d !acc
  | Minstr.Lvsr (ty, d, a) ->
    let ea = effective st a in
    let vs = st.target.Target.vs in
    let tok = ea mod vs / Src_type.size_of ty in
    set_vr st d (VInt [| tok |])
  | Minstr.Vperm (ty, d, a, b, t) ->
    let va = get_vr st a and vb = get_vr st b in
    let tok =
      match get_vr st t with
      | VInt [| tok |] -> tok
      | VInt _ | VFloat _ | VUndef -> faultf "vperm with non-token register"
    in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              let p = tok + l in
              if p < m then vval_get ty va p else vval_get ty vb (p - m))))
  | Minstr.Vwidenmul (h, ty, d, a, b) ->
    let w = widen_exn ty in
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    let off = half_off h m in
    set_vr st d
      (vval_of_values w
         (Array.init (m / 2) (fun l ->
              Value.binop w Op.Mul
                (Value.convert ~from:ty ~into:w (vval_get ty va (off + l)))
                (Value.convert ~from:ty ~into:w (vval_get ty vb (off + l))))))
  | Minstr.Vdot (ty, d, a, b, acc) ->
    let w = widen_exn ty in
    let va = get_vr st a
    and vb = get_vr st b
    and vacc = get_vr st acc in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values w
         (Array.init (m / 2) (fun l ->
              let p j =
                Value.binop w Op.Mul
                  (Value.convert ~from:ty ~into:w (vval_get ty va ((2 * l) + j)))
                  (Value.convert ~from:ty ~into:w (vval_get ty vb ((2 * l) + j)))
              in
              Value.binop w Op.Add (vval_get w vacc l)
                (Value.binop w Op.Add (p 0) (p 1)))))
  | Minstr.Vunpack (h, ty, d, s) ->
    let w = widen_exn ty in
    let v = get_vr st s in
    let m = lanes st ty in
    let off = half_off h m in
    set_vr st d
      (vval_of_values w
         (Array.init (m / 2) (fun l ->
              Value.convert ~from:ty ~into:w (vval_get ty v (off + l)))))
  | Minstr.Vpack (ty, d, a, b) ->
    let n = narrow_exn ty in
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values n
         (Array.init (2 * m) (fun l ->
              let x = if l < m then vval_get ty va l else vval_get ty vb (l - m) in
              Value.convert ~from:ty ~into:n x)))
  | Minstr.Vcvt (t1, t2, d, s) ->
    let v = get_vr st s in
    let m = lanes st t1 in
    set_vr st d
      (vval_of_values t2
         (Array.init m (fun l ->
              Value.convert ~from:t1 ~into:t2 (vval_get t1 v l))))
  | Minstr.Vextract (ty, stride, offset, d, parts) ->
    let ps = Array.of_list (List.map (get_vr st) parts) in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              let p = offset + (l * stride) in
              vval_get ty ps.(p / m) (p mod m))))
  | Minstr.Vinterleave (h, ty, d, a, b) ->
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    let off = half_off h m in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              if l mod 2 = 0 then vval_get ty va (off + (l / 2))
              else vval_get ty vb (off + (l / 2)))))
  | Minstr.Vcmp (op, ty, d, a, b) ->
    let va = get_vr st a and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (VInt
         (Array.init m (fun l ->
              Value.to_int
                (Value.binop ty op (vval_get ty va l) (vval_get ty vb l)))))
  | Minstr.Vsel (ty, d, mask, a, b) ->
    let vm = get_vr st mask in
    let va = get_vr st a
    and vb = get_vr st b in
    let m = lanes st ty in
    set_vr st d
      (vval_of_values ty
         (Array.init m (fun l ->
              if Value.to_int (vval_get Src_type.I64 vm l) <> 0 then
                vval_get ty va l
              else vval_get ty vb l)))
  | Minstr.VMaskedLoad (ty, d, m, a) ->
    (* Predicated access: no alignment requirement (SVE ld1 / AVX-512
       vmovups{k}); inactive lanes read as zero and touch no memory, so
       bounds are only checked for active lanes. *)
    let vm = get_vr st m in
    let ea = effective st a in
    let ml = lanes st ty in
    let esize = Src_type.size_of ty in
    set_vr st d
      (vval_of_values ty
         (Array.init ml (fun l ->
              if Value.to_int (vval_get Src_type.I64 vm l) <> 0 then begin
                check_bounds st (ea + (l * esize)) esize "masked vector load";
                Layout.read_value st.mem ty (ea + (l * esize))
              end
              else Value.normalize ty
                     (if Src_type.is_float ty then Value.Float 0.0
                      else Value.Int 0))))
  | Minstr.VMaskedStore (ty, a, m, s) ->
    let vm = get_vr st m in
    let v = get_vr st s in
    let ea = effective st a in
    let ml = lanes st ty in
    let esize = Src_type.size_of ty in
    if vval_lanes v <> ml then
      faultf "masked vector store of %d lanes, expected %d" (vval_lanes v) ml;
    for l = 0 to ml - 1 do
      if Value.to_int (vval_get Src_type.I64 vm l) <> 0 then begin
        check_bounds st (ea + (l * esize)) esize "masked vector store";
        Layout.write_value st.mem ty (ea + (l * esize)) (vval_get ty v l)
      end
    done
  | Minstr.VSpill (slot, s) -> st.vspill.(slot) <- get_vr st s
  | Minstr.VReload (d, slot) -> set_vr st d st.vspill.(slot)
  | Minstr.Label _ | Minstr.Jmp _ | Minstr.Br _ ->
    assert false (* handled by the driver loop *)
  | Minstr.Lib inner -> exec st inner

let is_scalar_fp = function
  | Minstr.Sop (_, ty, _, _, _)
  | Minstr.Sunop (_, ty, _, _)
  | Minstr.Scmp (_, ty, _, _, _) ->
    Src_type.is_float ty
  | _ -> false

(* Run a compiled function to completion.  [fuel] bounds the instruction
   count (guards against codegen bugs producing infinite loops). *)
let run ?(fuel = 200_000_000) (target : Target.t) (layout : Layout.t)
    (mem : Bytes.t) (f : Mfun.t)
    ~(scalar_args : (string * Value.t) list) : result =
  let st =
    {
      target;
      layout;
      mem;
      gpr = Array.make (max 1 f.Mfun.n_gpr) 0;
      fpr = Array.make (max 1 f.Mfun.n_fpr) 0.0;
      vr = Array.make (max 1 f.Mfun.n_vr) VUndef;
      vspill = Array.make (max 1 f.Mfun.n_vspill) VUndef;
      cycles = 0;
      executed = 0;
    }
  in
  (* Seed scalar parameters. *)
  List.iter
    (fun (name, sty, loc) ->
      match List.assoc_opt name scalar_args with
      | Some v -> (
        (* Round to the declared parameter type at the call boundary,
           exactly as the interpreter does on binding — an F32 argument
           must not enter the register file at double precision. *)
        let v = Value.normalize sty v in
        match (loc : Mfun.param_loc) with
        | Mfun.In_reg r -> (
          match r.Minstr.cls with
          | Minstr.GPR -> set_gpr st r (Value.to_int v)
          | Minstr.FPR -> set_fpr st r (Value.to_float v)
          | Minstr.VR -> faultf "vector parameter %s" name)
        | Mfun.In_stack (ty, off) ->
          Layout.write_value st.mem ty (st.layout.Layout.stack_base + off) v)
      | None -> faultf "missing scalar argument %s" name)
    f.Mfun.param_regs;
  (* Resolve labels. *)
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Minstr.Label l -> Hashtbl.replace labels l pc
      | _ -> ())
    f.Mfun.instrs;
  let label_pc l =
    match Hashtbl.find_opt labels l with
    | Some pc -> pc
    | None -> faultf "undefined label %d" l
  in
  let n = Array.length f.Mfun.instrs in
  let pc = ref 0 in
  let x87 = f.Mfun.fp_unit = Mfun.Fp_x87 in
  while !pc < n do
    if st.executed > fuel then faultf "fuel exhausted (infinite loop?)";
    let ins = f.Mfun.instrs.(!pc) in
    st.executed <- st.executed + 1;
    let c =
      if x87 && is_scalar_fp ins then target.Target.costs.Target.c_x87_fp_op
      else Minstr.cost target ins
    in
    st.cycles <- st.cycles + c;
    (match ins with
    | Minstr.Label _ -> incr pc
    | Minstr.Jmp l -> pc := label_pc l
    | Minstr.Br (op, a, b, l) ->
      let taken =
        Value.is_true
          (Value.binop Src_type.I64 op (Value.Int (get_gpr st a))
             (Value.Int (get_gpr st b)))
      in
      if taken then pc := label_pc l else incr pc
    | ins ->
      exec st ins;
      incr pc)
  done;
  { r_cycles = st.cycles; r_instructions = st.executed }

(* ---------------------------------------------------------------------- *)
(* Block-threaded execution plans.

   [prepare] does once, at JIT-compile time, everything [run] re-derives
   on every invocation: label resolution, cycle costs (with the x87
   blending), parameter-binding closures, and symbol interning for
   effective addresses.  The code is cut into straight-line blocks —
   leaders are pc 0, every [Label], and every pc after a [Jmp] or [Br] —
   and each block compiles to a chain of specialized closures, each
   tail-calling its successor, that ends in the block's exit: the index
   of the next block, or the block count to halt.  A block's cycle sum
   and instruction count are charged, and fuel tested, once on entry.
   A block that could cross the fuel limit is instead stepped
   instruction by instruction through [exec], with [run]'s own per-pc
   fuel test, so the fault surfaces exactly where [run] raises it.
   Instructions without a fast path fall back to [exec] on the same
   state, so a plan is cycle-, instruction-, fault- and bit-exact
   against [run] by construction.  [run_plan] reuses one scratch state
   per plan — zero per-run setup allocation. *)

type block = {
  b_start : int; (* pc of the leader *)
  b_count : int; (* instructions in the block, terminator included *)
  b_cost : int; (* their cycle sum, x87-blended *)
  b_run : state -> int; (* executes the block; returns the next block *)
}

type plan = {
  p_target : Target.t;
  p_mfun : Mfun.t;
  p_blocks : block array; (* block 0 is entered first *)
  p_syms : string array; (* interned address symbols *)
  p_bases : int array; (* per-run resolved bases; min_int = unresolved *)
  p_binders : (state -> (string * Value.t) list -> unit) array;
  mutable p_state : state option; (* scratch, created on first run *)
}

let plan_target p = p.p_target

(* Cycle cost of one instruction, with the x87 blending [run] applies. *)
let instr_cost (target : Target.t) ~x87 ins =
  if x87 && is_scalar_fp ins then target.Target.costs.Target.c_x87_fp_op
  else Minstr.cost target ins

(* The base of interned symbol [k] in this run's layout.  Bases are
   resolved once per run; an unresolved symbol faults lazily, with
   Layout.base_of's own exception, only where an address uses it. *)
let[@inline] sym_base bases k sym st =
  let b = Array.unsafe_get bases k in
  if b = min_int then Layout.base_of st.layout sym else b

(* [Src_type.normalize_int] written as mask arithmetic over the
   [norm_consts] pair of the type, so it inlines into the actions. *)
let[@inline] norm nm ns z =
  let z = z land nm in
  if z land ns <> 0 then z - nm - 1 else z

(* The rule the reference engine applies to [Br] at I64. *)
let branch_taken op x y =
  Value.is_true (Value.binop Src_type.I64 op (Value.Int x) (Value.Int y))

(* Collect the address symbols an instruction can reference. *)
let rec addr_syms (i : Minstr.t) : string list =
  match i with
  | Minstr.Lea (_, a)
  | Minstr.Load (_, _, a)
  | Minstr.Store (_, a, _)
  | Minstr.VLoad (_, _, _, a)
  | Minstr.VStore (_, _, a, _)
  | Minstr.Lvsr (_, _, a) ->
    if a.Minstr.sym = "" then [] else [ a.Minstr.sym ]
  | Minstr.Lib inner -> addr_syms inner
  | _ -> []

let prepare ~(target : Target.t) (f : Mfun.t) : plan =
  let stage_t0 = Vapor_obs.Stage.start () in
  let instrs = f.Mfun.instrs in
  let sym_tbl = Hashtbl.create 8 in
  let sym_rev = ref [] in
  let intern s =
    match Hashtbl.find_opt sym_tbl s with
    | Some k -> k
    | None ->
      let k = Hashtbl.length sym_tbl in
      Hashtbl.add sym_tbl s k;
      sym_rev := s :: !sym_rev;
      k
  in
  Array.iter (fun ins -> List.iter (fun s -> ignore (intern s)) (addr_syms ins))
    instrs;
  let p_syms = Array.of_list (List.rev !sym_rev) in
  let bases = Array.make (max 1 (Array.length p_syms)) min_int in
  (* Label resolution (once, not per run). *)
  let labels = Hashtbl.create 16 in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Minstr.Label l -> Hashtbl.replace labels l pc
      | _ -> ())
    instrs;
  let x87 = f.Mfun.fp_unit = Mfun.Fp_x87 in
  (* Effective-address closures with the symbol base folded in. *)
  let compile_addr (a : Minstr.addr) : state -> int =
    let disp = a.Minstr.disp in
    if a.Minstr.sym = "" then
      (* No symbol: pure register arithmetic, no base lookup. *)
      match a.Minstr.base, a.Minstr.index with
      | None, None -> fun _ -> disp
      | Some b, None ->
        let ib = reg_index b in
        fun st -> st.gpr.(ib) + disp
      | None, Some i ->
        let ii = reg_index i and sc = a.Minstr.scale in
        fun st -> (st.gpr.(ii) * sc) + disp
      | Some b, Some i ->
        let ib = reg_index b and ii = reg_index i and sc = a.Minstr.scale in
        fun st -> st.gpr.(ib) + (st.gpr.(ii) * sc) + disp
    else begin
      let sym = a.Minstr.sym in
      let k = intern sym in
      match a.Minstr.base, a.Minstr.index with
      | None, None -> fun st -> sym_base bases k sym st + disp
      | Some b, None ->
        let ib = reg_index b in
        fun st -> sym_base bases k sym st + st.gpr.(ib) + disp
      | None, Some i ->
        let ii = reg_index i and sc = a.Minstr.scale in
        fun st -> sym_base bases k sym st + (st.gpr.(ii) * sc) + disp
      | Some b, Some i ->
        let ib = reg_index b and ii = reg_index i and sc = a.Minstr.scale in
        fun st ->
          sym_base bases k sym st + st.gpr.(ib) + (st.gpr.(ii) * sc) + disp
    end
  in
  (* A constant [sym+disp] address, as in every stack spill slot: loads
     and stores of the spill types (s64, f64) through one compute the
     address inline, with no call. *)
  let const_addr (a : Minstr.addr) =
    match a.Minstr.sym, a.Minstr.base, a.Minstr.index with
    | "", _, _ | _, Some _, _ | _, _, Some _ -> None
    | sym, None, None -> Some (intern sym, sym, a.Minstr.disp)
  in
  let mem_len st = Bytes.length st.mem in
  let vs = target.Target.vs in
  let lanes_of ty = max 1 (vs / Src_type.size_of ty) in
  let explicit_realign = target.Target.explicit_realign in
  (* (mask, sign-bit) pair such that [Src_type.normalize_int ty v] equals
     [let x = v land nm in if x land ns <> 0 then x - nm - 1 else x]:
     ns = 0 for unsigned types, and i64 keeps every bit via nm = -1.
     Lane loops write the normalization inline from these constants — a
     per-lane call into Src_type would cost a call and a type dispatch on
     each of the 8-16 lanes of the narrow integer kernels. *)
  let norm_consts ty =
    match ty with
    | Src_type.I8 -> 0xff, 0x80
    | Src_type.U8 -> 0xff, 0
    | Src_type.I16 -> 0xffff, 0x8000
    | Src_type.U16 -> 0xffff, 0
    | Src_type.I32 -> 0xffffffff, 0x80000000
    | Src_type.U32 -> 0xffffffff, 0
    | Src_type.I64 -> -1, 0
    | Src_type.F32 | Src_type.F64 ->
      invalid_arg "Simulator.norm_consts: float type"
  in
  (* Specialized actions for the scalar-dominant instruction set; every
     fast path reproduces exec's semantics (normalization, raw register
     reads, fault messages) expression for expression.  Each action
     finishes by tail-calling [k], the action of the next instruction in
     its block, so every instruction kind dispatches from its own call
     site.  Vector actions additionally dispatch on the runtime
     representation: a register holding the expected kind runs an unboxed
     lane loop, any other shape falls back to [exec] so mismatch faults
     stay identical. *)
  let rec compile_action (ins : Minstr.t) (k : state -> int) : state -> int =
    let fallback ins = fun st -> exec st ins; k st in
    match ins with
    | Minstr.Label _ -> k
    | Minstr.Jmp _ | Minstr.Br _ ->
      invalid_arg "Simulator.prepare: control flow inside a block"
    | Minstr.Li (d, v) ->
      let id = reg_index d in
      fun st -> st.gpr.(id) <- v; k st
    | Minstr.Lfi (d, v) ->
      let id = reg_index d in
      fun st -> st.fpr.(id) <- v; k st
    | Minstr.Mov (d, s) -> (
      let id = reg_index d and is = reg_index s in
      match d.Minstr.cls with
      | Minstr.GPR -> fun st -> st.gpr.(id) <- st.gpr.(is); k st
      | Minstr.FPR -> fun st -> st.fpr.(id) <- st.fpr.(is); k st
      | Minstr.VR ->
        fun st ->
          (match st.vr.(is) with
          | VUndef -> faultf "use of undefined vector register v%d" is
          | v -> st.vr.(id) <- v);
          k st)
    | Minstr.Cmov (d, c, a, b) -> (
      let id = reg_index d and ic = reg_index c in
      let ia = reg_index a and ib = reg_index b in
      match d.Minstr.cls with
      | Minstr.GPR ->
        fun st ->
          st.gpr.(id) <- st.gpr.(if st.gpr.(ic) <> 0 then ia else ib);
          k st
      | Minstr.FPR ->
        fun st ->
          st.fpr.(id) <- st.fpr.(if st.gpr.(ic) <> 0 then ia else ib);
          k st
      | Minstr.VR ->
        fun st ->
          let is = if st.gpr.(ic) <> 0 then ia else ib in
          (match st.vr.(is) with
          | VUndef -> faultf "use of undefined vector register v%d" is
          | v -> st.vr.(id) <- v);
          k st)
    | Minstr.Lea (d, a) ->
      let id = reg_index d in
      let ea = compile_addr a in
      fun st -> st.gpr.(id) <- ea st; k st
    | Minstr.Sop (op, ty, d, a, b) when not (Src_type.is_float ty) -> (
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let nm, ns = norm_consts ty in
      let mask = (Src_type.size_of ty * 8) - 1 in
      match op with
      | Op.Add -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) + st.gpr.(ib)); k st
      | Op.Sub -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) - st.gpr.(ib)); k st
      | Op.Mul -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) * st.gpr.(ib)); k st
      | Op.Div ->
        fun st ->
          let y = st.gpr.(ib) in
          if y = 0 then raise Division_by_zero
          else st.gpr.(id) <- norm nm ns (st.gpr.(ia) / y);
          k st
      | Op.Min -> fun st -> st.gpr.(id) <- norm nm ns (min st.gpr.(ia) st.gpr.(ib)); k st
      | Op.Max -> fun st -> st.gpr.(id) <- norm nm ns (max st.gpr.(ia) st.gpr.(ib)); k st
      | Op.And -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) land st.gpr.(ib)); k st
      | Op.Or -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) lor st.gpr.(ib)); k st
      | Op.Xor -> fun st -> st.gpr.(id) <- norm nm ns (st.gpr.(ia) lxor st.gpr.(ib)); k st
      | Op.Shl ->
        fun st ->
          st.gpr.(id) <- norm nm ns (st.gpr.(ia) lsl (st.gpr.(ib) land mask));
          k st
      | Op.Shr ->
        fun st ->
          st.gpr.(id) <- norm nm ns (st.gpr.(ia) asr (st.gpr.(ib) land mask));
          k st
      (* Comparisons store the raw 0/1 (Value.binop does not normalize
         comparison results). *)
      | Op.Eq -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) = st.gpr.(ib) then 1 else 0); k st
      | Op.Ne -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) <> st.gpr.(ib) then 1 else 0); k st
      | Op.Lt -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) < st.gpr.(ib) then 1 else 0); k st
      | Op.Le -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) <= st.gpr.(ib) then 1 else 0); k st
      | Op.Gt -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) > st.gpr.(ib) then 1 else 0); k st
      | Op.Ge -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) >= st.gpr.(ib) then 1 else 0); k st)
    | Minstr.Sop (op, ty, d, a, b) -> (
      (* float scalar ops; comparisons land 1.0/0.0 in the FPR via
         set_scalar's to_float on Value.Int. *)
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let n32 = ty = Src_type.F32 in
      match op with
      | Op.Add ->
        fun st ->
          let z = st.fpr.(ia) +. st.fpr.(ib) in
          st.fpr.(id) <-
            (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
          k st
      | Op.Sub ->
        fun st ->
          let z = st.fpr.(ia) -. st.fpr.(ib) in
          st.fpr.(id) <-
            (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
          k st
      | Op.Mul ->
        fun st ->
          let z = st.fpr.(ia) *. st.fpr.(ib) in
          st.fpr.(id) <-
            (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
          k st
      | Op.Div ->
        fun st ->
          let z = st.fpr.(ia) /. st.fpr.(ib) in
          st.fpr.(id) <-
            (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
          k st
      | Op.Min ->
        fun st ->
          let z = Float.min st.fpr.(ia) st.fpr.(ib) in
          st.fpr.(id) <-
            (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
          k st
      | Op.Max ->
        fun st ->
          let z = Float.max st.fpr.(ia) st.fpr.(ib) in
          st.fpr.(id) <-
            (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
          k st
      | Op.Eq -> fun st -> st.fpr.(id) <- (if st.fpr.(ia) = st.fpr.(ib) then 1.0 else 0.0); k st
      | Op.Ne -> fun st -> st.fpr.(id) <- (if st.fpr.(ia) <> st.fpr.(ib) then 1.0 else 0.0); k st
      | Op.Lt -> fun st -> st.fpr.(id) <- (if st.fpr.(ia) < st.fpr.(ib) then 1.0 else 0.0); k st
      | Op.Le -> fun st -> st.fpr.(id) <- (if st.fpr.(ia) <= st.fpr.(ib) then 1.0 else 0.0); k st
      | Op.Gt -> fun st -> st.fpr.(id) <- (if st.fpr.(ia) > st.fpr.(ib) then 1.0 else 0.0); k st
      | Op.Ge -> fun st -> st.fpr.(id) <- (if st.fpr.(ia) >= st.fpr.(ib) then 1.0 else 0.0); k st
      | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> fallback ins)
    | Minstr.Sunop (op, ty, d, s) -> (
      let id = reg_index d and is = reg_index s in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 in
        match op with
        | Op.Neg ->
          fun st ->
            let z = -.st.fpr.(is) in
            st.fpr.(id) <-
              (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
            k st
        | Op.Abs ->
          fun st ->
            let z = Float.abs st.fpr.(is) in
            st.fpr.(id) <-
              (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
            k st
        | Op.Sqrt ->
          fun st ->
            let z = Float.sqrt st.fpr.(is) in
            st.fpr.(id) <-
              (if n32 then Int32.float_of_bits (Int32.bits_of_float z) else z);
            k st
        | Op.Not -> fallback ins
      else
        let nm, ns = norm_consts ty in
        match op with
        | Op.Neg -> fun st -> st.gpr.(id) <- norm nm ns (-st.gpr.(is)); k st
        | Op.Abs -> fun st -> st.gpr.(id) <- norm nm ns (abs st.gpr.(is)); k st
        | Op.Not -> fun st -> st.gpr.(id) <- norm nm ns (lnot st.gpr.(is)); k st
        | Op.Sqrt -> fallback ins)
    | Minstr.Scmp (op, ty, d, a, b) when Op.is_comparison op -> (
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      if Src_type.is_float ty then
        match op with
        | Op.Eq -> fun st -> st.gpr.(id) <- (if st.fpr.(ia) = st.fpr.(ib) then 1 else 0); k st
        | Op.Ne -> fun st -> st.gpr.(id) <- (if st.fpr.(ia) <> st.fpr.(ib) then 1 else 0); k st
        | Op.Lt -> fun st -> st.gpr.(id) <- (if st.fpr.(ia) < st.fpr.(ib) then 1 else 0); k st
        | Op.Le -> fun st -> st.gpr.(id) <- (if st.fpr.(ia) <= st.fpr.(ib) then 1 else 0); k st
        | Op.Gt -> fun st -> st.gpr.(id) <- (if st.fpr.(ia) > st.fpr.(ib) then 1 else 0); k st
        | Op.Ge -> fun st -> st.gpr.(id) <- (if st.fpr.(ia) >= st.fpr.(ib) then 1 else 0); k st
        | _ -> fallback ins
      else
        match op with
        | Op.Eq -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) = st.gpr.(ib) then 1 else 0); k st
        | Op.Ne -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) <> st.gpr.(ib) then 1 else 0); k st
        | Op.Lt -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) < st.gpr.(ib) then 1 else 0); k st
        | Op.Le -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) <= st.gpr.(ib) then 1 else 0); k st
        | Op.Gt -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) > st.gpr.(ib) then 1 else 0); k st
        | Op.Ge -> fun st -> st.gpr.(id) <- (if st.gpr.(ia) >= st.gpr.(ib) then 1 else 0); k st
        | _ -> fallback ins)
    | Minstr.Cvt (t1, t2, d, s) -> (
      let id = reg_index d and is = reg_index s in
      match Src_type.is_float t1, Src_type.is_float t2 with
      | true, true ->
        fun st -> st.fpr.(id) <- Src_type.normalize_float t2 st.fpr.(is); k st
      | true, false ->
        fun st ->
          st.gpr.(id) <-
            Src_type.normalize_int t2
              (int_of_float (Float.of_int 0 +. Float.trunc st.fpr.(is)));
          k st
      | false, true ->
        fun st ->
          st.fpr.(id) <- Src_type.normalize_float t2 (float_of_int st.gpr.(is));
          k st
      | false, false ->
        fun st -> st.gpr.(id) <- Src_type.normalize_int t2 st.gpr.(is); k st)
    | Minstr.Load (ty, d, a) -> (
      let id = reg_index d in
      let sz = Src_type.size_of ty in
      match const_addr a, ty with
      | Some (kb, sym, disp), Src_type.I64 ->
        fun st ->
          let addr = sym_base bases kb sym st + disp in
          if addr < 0 || addr + 8 > Bytes.length st.mem then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <- Int64.to_int (Bytes.get_int64_le st.mem addr);
          k st
      | Some (kb, sym, disp), Src_type.F64 ->
        fun st ->
          let addr = sym_base bases kb sym st + disp in
          if addr < 0 || addr + 8 > Bytes.length st.mem then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.fpr.(id) <- Int64.float_of_bits (Bytes.get_int64_le st.mem addr);
          k st
      | _ ->
      let ea = compile_addr a in
      (* Unboxed per-type reads, same byte formats as [Layout.read_value]. *)
      match ty with
      | Src_type.I8 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <-
            Src_type.normalize_int Src_type.I8 (Bytes.get_uint8 st.mem addr);
          k st
      | Src_type.U8 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <- Bytes.get_uint8 st.mem addr;
          k st
      | Src_type.I16 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <-
            Src_type.normalize_int Src_type.I16
              (Bytes.get_uint16_le st.mem addr);
          k st
      | Src_type.U16 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <- Bytes.get_uint16_le st.mem addr;
          k st
      | Src_type.I32 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <- Int32.to_int (Bytes.get_int32_le st.mem addr);
          k st
      | Src_type.U32 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <-
            Int32.to_int (Bytes.get_int32_le st.mem addr) land 0xffffffff;
          k st
      | Src_type.I64 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.gpr.(id) <- Int64.to_int (Bytes.get_int64_le st.mem addr);
          k st
      | Src_type.F32 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.fpr.(id) <- Int32.float_of_bits (Bytes.get_int32_le st.mem addr);
          k st
      | Src_type.F64 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "load" addr sz;
          st.fpr.(id) <- Int64.float_of_bits (Bytes.get_int64_le st.mem addr);
          k st)
    | Minstr.Store (ty, a, s) -> (
      let is = reg_index s in
      let sz = Src_type.size_of ty in
      match const_addr a, ty with
      | Some (kb, sym, disp), Src_type.I64 ->
        fun st ->
          let addr = sym_base bases kb sym st + disp in
          if addr < 0 || addr + 8 > Bytes.length st.mem then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_int64_le st.mem addr (Int64.of_int st.gpr.(is));
          k st
      | Some (kb, sym, disp), Src_type.F64 ->
        fun st ->
          let addr = sym_base bases kb sym st + disp in
          if addr < 0 || addr + 8 > Bytes.length st.mem then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_int64_le st.mem addr (Int64.bits_of_float st.fpr.(is));
          k st
      | _ ->
      let ea = compile_addr a in
      (* Unboxed per-type writes, same byte formats as [Layout.write_value]. *)
      match ty with
      | Src_type.I8 | Src_type.U8 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_uint8 st.mem addr (st.gpr.(is) land 0xff);
          k st
      | Src_type.I16 | Src_type.U16 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_uint16_le st.mem addr (st.gpr.(is) land 0xffff);
          k st
      | Src_type.I32 | Src_type.U32 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_int32_le st.mem addr (Int32.of_int st.gpr.(is));
          k st
      | Src_type.I64 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_int64_le st.mem addr (Int64.of_int st.gpr.(is));
          k st
      | Src_type.F32 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_int32_le st.mem addr (Int32.bits_of_float st.fpr.(is));
          k st
      | Src_type.F64 ->
        fun st ->
          let addr = ea st in
          if addr < 0 || addr + sz > mem_len st then
            faultf "%s at address %d (+%d) out of memory" "store" addr sz;
          Bytes.set_int64_le st.mem addr (Int64.bits_of_float st.fpr.(is));
          k st)
    | Minstr.VSpill (slot, s) ->
      let is = reg_index s in
      fun st ->
        (match st.vr.(is) with
        | VUndef -> faultf "use of undefined vector register v%d" is
        | v -> st.vspill.(slot) <- v);
        k st
    | Minstr.VReload (d, slot) ->
      let id = reg_index d in
      fun st -> st.vr.(id) <- st.vspill.(slot); k st
    | Minstr.Lib inner -> (
      (* Lib executes its payload; control flow inside Lib is as illegal
         here as in exec (assert false), so route it through exec. *)
      match inner with
      | Minstr.Label _ | Minstr.Jmp _ | Minstr.Br _ -> fallback ins
      | _ -> compile_action inner k)
    | Minstr.VLoad (kind, ty, d, a) ->
      let id = reg_index d in
      let ea_of = compile_addr a in
      let m = lanes_of ty in
      let esize = Src_type.size_of ty in
      let bytes = m * esize in
      let align : int -> int =
        match kind with
        | Minstr.VM_misaligned -> fun ea -> ea
        | Minstr.VM_aligned ->
          if explicit_realign then fun ea -> ea / vs * vs (* lvx floors *)
          else
            fun ea ->
              if ea mod vs <> 0 then
                faultf "aligned vector access to misaligned address %d" ea
              else ea
      in
      let read : Bytes.t -> int -> vval =
        match ty with
        | Src_type.F32 ->
          fun mem ea ->
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              r.(l) <-
                Int32.float_of_bits (Bytes.get_int32_le mem (ea + (l * 4)))
            done;
            VFloat r
        | Src_type.F64 ->
          fun mem ea ->
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              r.(l) <-
                Int64.float_of_bits (Bytes.get_int64_le mem (ea + (l * 8)))
            done;
            VFloat r
        | Src_type.I8 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let v = Bytes.get_uint8 mem (ea + l) in
              r.(l) <- v - (if v land 0x80 <> 0 then 0x100 else 0)
            done;
            VInt r
        | Src_type.U8 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              r.(l) <- Bytes.get_uint8 mem (ea + l)
            done;
            VInt r
        | Src_type.I16 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let v = Bytes.get_uint16_le mem (ea + (l * 2)) in
              r.(l) <- v - (if v land 0x8000 <> 0 then 0x10000 else 0)
            done;
            VInt r
        | Src_type.U16 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              r.(l) <- Bytes.get_uint16_le mem (ea + (l * 2))
            done;
            VInt r
        | Src_type.I32 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              r.(l) <- Int32.to_int (Bytes.get_int32_le mem (ea + (l * 4)))
            done;
            VInt r
        | Src_type.U32 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              r.(l) <-
                Int32.to_int (Bytes.get_int32_le mem (ea + (l * 4)))
                land 0xffffffff
            done;
            VInt r
        | Src_type.I64 ->
          fun mem ea ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              r.(l) <- Int64.to_int (Bytes.get_int64_le mem (ea + (l * 8)))
            done;
            VInt r
      in
      fun st ->
        let ea = align (ea_of st) in
        if ea < 0 || ea + bytes > mem_len st then
          faultf "%s at address %d (+%d) out of memory" "vector load" ea bytes;
        st.vr.(id) <- read st.mem ea;
        k st
    | Minstr.VStore (kind, ty, a, s) ->
      let isrc = reg_index s in
      let ea_of = compile_addr a in
      let m = lanes_of ty in
      let esize = Src_type.size_of ty in
      let bytes = m * esize in
      let is_f = Src_type.is_float ty in
      let align : int -> int =
        match kind with
        | Minstr.VM_misaligned -> fun ea -> ea
        | Minstr.VM_aligned ->
          fun ea ->
            if ea mod vs <> 0 then
              faultf "aligned vector store to misaligned address %d" ea
            else ea
      in
      let check st lanes =
        let ea = align (ea_of st) in
        if ea < 0 || ea + bytes > mem_len st then
          faultf "%s at address %d (+%d) out of memory" "vector store" ea bytes;
        if lanes <> m then
          faultf "vector store of %d lanes, expected %d" lanes m;
        ea
      in
      let write_f : Bytes.t -> int -> float array -> unit =
        match ty with
        | Src_type.F32 ->
          fun mem ea fa ->
            for l = 0 to m - 1 do
              Bytes.set_int32_le mem (ea + (l * 4)) (Int32.bits_of_float fa.(l))
            done
        | Src_type.F64 ->
          fun mem ea fa ->
            for l = 0 to m - 1 do
              Bytes.set_int64_le mem (ea + (l * 8)) (Int64.bits_of_float fa.(l))
            done
        | _ -> fun _ _ _ -> assert false
      in
      let write_i : Bytes.t -> int -> int array -> unit =
        match ty with
        | Src_type.I8 | Src_type.U8 ->
          fun mem ea xa ->
            for l = 0 to m - 1 do
              Bytes.set_uint8 mem (ea + l) (xa.(l) land 0xff)
            done
        | Src_type.I16 | Src_type.U16 ->
          fun mem ea xa ->
            for l = 0 to m - 1 do
              Bytes.set_uint16_le mem (ea + (l * 2)) (xa.(l) land 0xffff)
            done
        | Src_type.I32 | Src_type.U32 ->
          fun mem ea xa ->
            for l = 0 to m - 1 do
              Bytes.set_int32_le mem (ea + (l * 4)) (Int32.of_int xa.(l))
            done
        | Src_type.I64 ->
          fun mem ea xa ->
            for l = 0 to m - 1 do
              Bytes.set_int64_le mem (ea + (l * 8)) (Int64.of_int xa.(l))
            done
        | _ -> fun _ _ _ -> assert false
      in
      fun st ->
        (match st.vr.(isrc) with
        | VFloat fa when is_f ->
          write_f st.mem (check st (Array.length fa)) fa
        | VInt xa when not is_f ->
          write_i st.mem (check st (Array.length xa)) xa
        | _ -> exec st ins);
        k st
    | Minstr.Vop (op, ty, d, a, b) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty in
      if Src_type.is_float ty then begin
        (* The normalize-to-f32 round trip is written inline in every lane
           loop: called through a closure it would box three floats per
           lane, inline the whole chain stays unboxed.  [n32] selects f32
           rounding; for f64 the conditional is the identity. *)
        let n32 = ty = Src_type.F32 in
        let mk (body : float array -> float array -> float array -> unit) =
          fun st ->
            (match st.vr.(ia), st.vr.(ib) with
            | VFloat xa, VFloat xb ->
              let r = Array.make m 0.0 in
              body xa xb r;
              st.vr.(id) <- VFloat r
            | _, _ -> exec st ins);
            k st
        in
        let arith (body : float array -> float array -> float array -> unit) =
          mk body
        in
        match op with
        | Op.Add ->
          arith (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = x +. y in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Sub ->
          arith (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = x -. y in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Mul ->
          arith (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = x *. y in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Div ->
          arith (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = x /. y in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Min ->
          arith (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = Float.min x y in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Max ->
          arith (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = Float.max x y in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        (* Comparisons land raw 0/1 converted to float lanes. *)
        | Op.Eq ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if x = y then 1.0 else 0.0)
              done)
        | Op.Ne ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if x <> y then 1.0 else 0.0)
              done)
        | Op.Lt ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if x < y then 1.0 else 0.0)
              done)
        | Op.Le ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if x <= y then 1.0 else 0.0)
              done)
        | Op.Gt ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if x > y then 1.0 else 0.0)
              done)
        | Op.Ge ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if x >= y then 1.0 else 0.0)
              done)
        | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> fallback ins
      end
      else begin
        (* Per-lane normalization written inline as mask arithmetic:
           normalize_int ty v == let x = v land nm in
                                 if x land ns <> 0 then x - nm - 1 else x
           with ns = 0 for unsigned types (and i64, where nm = -1 keeps
           every bit).  Calling Src_type.normalize_int per lane would
           cost a cross-module call and a type dispatch on each of the
           8-16 lanes of the narrow integer kernels. *)
        let nm, ns = norm_consts ty in
        let mask = (Src_type.size_of ty * 8) - 1 in
        let mk (body : int array -> int array -> int array -> unit) =
          fun st ->
            (match st.vr.(ia), st.vr.(ib) with
            | VInt xa, VInt xb ->
              let r = Array.make m 0 in
              body xa xb r;
              st.vr.(id) <- VInt r
            | _, _ -> exec st ins);
            k st
        in
        match op with
        | Op.Add ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = (x + y) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Sub ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = (x - y) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Mul ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = x * y land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Div ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                if y = 0 then raise Division_by_zero;
                let z = x / y land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Min ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = (if x <= y then x else y) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Max ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = (if x >= y then x else y) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.And ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = x land y land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Or ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = (x lor y) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Xor ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = x lxor y land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Shl ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = x lsl (y land mask) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Shr ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = x asr (y land mask) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Eq ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if x = y then 1 else 0)
              done)
        | Op.Ne ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if x <> y then 1 else 0)
              done)
        | Op.Lt ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if x < y then 1 else 0)
              done)
        | Op.Le ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if x <= y then 1 else 0)
              done)
        | Op.Gt ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if x > y then 1 else 0)
              done)
        | Op.Ge ->
          mk (fun xa xb r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if x >= y then 1 else 0)
              done)
      end
    | Minstr.Vunop (op, ty, d, s) ->
      let id = reg_index d and is_ = reg_index s in
      let m = lanes_of ty in
      if Src_type.is_float ty then begin
        let n32 = ty = Src_type.F32 in
        let mk (body : float array -> float array -> unit) =
          fun st ->
            (match st.vr.(is_) with
            | VFloat xa ->
              let r = Array.make m 0.0 in
              body xa r;
              st.vr.(id) <- VFloat r
            | _ -> exec st ins);
            k st
        in
        match op with
        | Op.Neg ->
          mk (fun xa r ->
              for l = 0 to m - 1 do
                let x = xa.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                in
                let z = -.x in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Abs ->
          mk (fun xa r ->
              for l = 0 to m - 1 do
                let x = xa.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                in
                let z = Float.abs x in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Sqrt ->
          mk (fun xa r ->
              for l = 0 to m - 1 do
                let x = xa.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                in
                let z = Float.sqrt x in
                r.(l) <-
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done)
        | Op.Not -> fallback ins
      end
      else begin
        let nm, ns = norm_consts ty in
        let mk (body : int array -> int array -> unit) =
          fun st ->
            (match st.vr.(is_) with
            | VInt xa ->
              let r = Array.make m 0 in
              body xa r;
              st.vr.(id) <- VInt r
            | _ -> exec st ins);
            k st
        in
        match op with
        | Op.Neg ->
          mk (fun xa r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let z = -x land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Abs ->
          mk (fun xa r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let z = (if x < 0 then -x else x) land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Not ->
          mk (fun xa r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let z = lnot x land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Sqrt -> fallback ins
      end
    | Minstr.Vshift (op, ty, d, s, amt) ->
      if Src_type.is_float ty then fallback ins
      else begin
        let id = reg_index d and is_ = reg_index s in
        let iamt = reg_index amt in
        let m = lanes_of ty in
        let nm, ns = norm_consts ty in
        let mask = (Src_type.size_of ty * 8) - 1 in
        let mk (body : int array -> int -> int array -> unit) =
          fun st ->
            (match st.vr.(is_) with
            | VInt xa ->
              let y = st.gpr.(iamt) land mask in
              let r = Array.make m 0 in
              body xa y r;
              st.vr.(id) <- VInt r
            | _ -> exec st ins);
            k st
        in
        match op with
        | Op.Shl ->
          mk (fun xa y r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let z = x lsl y land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | Op.Shr ->
          mk (fun xa y r ->
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let z = x asr y land nm in
                r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
              done)
        | _ -> fallback ins
      end
    | Minstr.Vsplat (ty, d, s) ->
      let id = reg_index d and is_ = reg_index s in
      let m = lanes_of ty in
      if Src_type.is_float ty then
        let nf v = Src_type.normalize_float ty v in
        fun st ->
          st.vr.(id) <- VFloat (Array.make m (nf st.fpr.(is_)));
          k st
      else
        let nz i = Src_type.normalize_int ty i in
        fun st ->
          st.vr.(id) <- VInt (Array.make m (nz st.gpr.(is_)));
          k st
    | Minstr.Viota (ty, d, s, inc) ->
      if Src_type.is_float ty then fallback ins
      else
        let id = reg_index d and is_ = reg_index s in
        let m = lanes_of ty in
        let nm, ns = norm_consts ty in
        fun st ->
          let x = st.gpr.(is_) in
          let r = Array.make m 0 in
          for l = 0 to m - 1 do
            let z = (x + (l * inc)) land nm in
            r.(l) <- (if z land ns <> 0 then z - nm - 1 else z)
          done;
          st.vr.(id) <- VInt r;
          k st
    | Minstr.Vreduce (op, ty, d, s) ->
      let id = reg_index d and is_ = reg_index s in
      let m = lanes_of ty in
      if Src_type.is_float ty then begin
        let n32 = ty = Src_type.F32 in
        let mk (body : float array -> float) =
          fun st ->
            (match st.vr.(is_) with
            | VFloat xa -> st.fpr.(id) <- body xa
            | _ -> exec st ins);
            k st
        in
        match op with
        | Op.Add ->
          mk (fun xa ->
              let x0 = xa.(0) in
              let acc =
                ref
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float x0)
                   else x0)
              in
              for l = 1 to m - 1 do
                let y = xa.(l) in
                let y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = !acc +. y in
                acc :=
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done;
              !acc)
        | Op.Mul ->
          mk (fun xa ->
              let x0 = xa.(0) in
              let acc =
                ref
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float x0)
                   else x0)
              in
              for l = 1 to m - 1 do
                let y = xa.(l) in
                let y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = !acc *. y in
                acc :=
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done;
              !acc)
        | Op.Min ->
          mk (fun xa ->
              let x0 = xa.(0) in
              let acc =
                ref
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float x0)
                   else x0)
              in
              for l = 1 to m - 1 do
                let y = xa.(l) in
                let y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = Float.min !acc y in
                acc :=
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done;
              !acc)
        | Op.Max ->
          mk (fun xa ->
              let x0 = xa.(0) in
              let acc =
                ref
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float x0)
                   else x0)
              in
              for l = 1 to m - 1 do
                let y = xa.(l) in
                let y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = Float.max !acc y in
                acc :=
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done;
              !acc)
        | Op.Sub ->
          mk (fun xa ->
              let x0 = xa.(0) in
              let acc =
                ref
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float x0)
                   else x0)
              in
              for l = 1 to m - 1 do
                let y = xa.(l) in
                let y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = !acc -. y in
                acc :=
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done;
              !acc)
        | Op.Div ->
          mk (fun xa ->
              let x0 = xa.(0) in
              let acc =
                ref
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float x0)
                   else x0)
              in
              for l = 1 to m - 1 do
                let y = xa.(l) in
                let y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                let z = !acc /. y in
                acc :=
                  (if n32 then Int32.float_of_bits (Int32.bits_of_float z)
                   else z)
              done;
              !acc)
        | _ -> fallback ins
      end
      else begin
        let nm, ns = norm_consts ty in
        let mk (f : int -> int -> int) =
          fun st ->
            (match st.vr.(is_) with
            | VInt xa ->
              let x0 = xa.(0) land nm in
              let acc = ref (if x0 land ns <> 0 then x0 - nm - 1 else x0) in
              for l = 1 to m - 1 do
                let y = xa.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                let z = f !acc y land nm in
                acc := (if z land ns <> 0 then z - nm - 1 else z)
              done;
              st.gpr.(id) <- !acc
            | _ -> exec st ins);
            k st
        in
        match op with
        | Op.Add -> mk (fun x y -> x + y)
        | Op.Sub -> mk (fun x y -> x - y)
        | Op.Mul -> mk (fun x y -> x * y)
        | Op.Min -> mk (fun x y -> if x <= y then x else y)
        | Op.Max -> mk (fun x y -> if x >= y then x else y)
        | Op.And -> mk (fun x y -> x land y)
        | Op.Or -> mk (fun x y -> x lor y)
        | Op.Xor -> mk (fun x y -> x lxor y)
        | _ -> fallback ins
      end
    | Minstr.Vcmp (op, ty, d, a, b) when Op.is_comparison op ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty in
      if Src_type.is_float ty then begin
        let n32 = ty = Src_type.F32 in
        let mk (f : float -> float -> bool) =
          fun st ->
            (match st.vr.(ia), st.vr.(ib) with
            | VFloat xa, VFloat xb ->
              let r = Array.make m 0 in
              for l = 0 to m - 1 do
                let x = xa.(l) and y = xb.(l) in
                let x =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                  else x
                and y =
                  if n32 then Int32.float_of_bits (Int32.bits_of_float y)
                  else y
                in
                r.(l) <- (if f x y then 1 else 0)
              done;
              st.vr.(id) <- VInt r
            | _, _ -> exec st ins);
            k st
        in
        match op with
        | Op.Eq -> mk (fun x y -> x = y)
        | Op.Ne -> mk (fun x y -> x <> y)
        | Op.Lt -> mk (fun x y -> x < y)
        | Op.Le -> mk (fun x y -> x <= y)
        | Op.Gt -> mk (fun x y -> x > y)
        | Op.Ge -> mk (fun x y -> x >= y)
        | _ -> fallback ins
      end
      else begin
        let nm, ns = norm_consts ty in
        let mk (f : int -> int -> bool) =
          fun st ->
            (match st.vr.(ia), st.vr.(ib) with
            | VInt xa, VInt xb ->
              let r = Array.make m 0 in
              for l = 0 to m - 1 do
                let x = xa.(l) land nm in
                let x = if x land ns <> 0 then x - nm - 1 else x in
                let y = xb.(l) land nm in
                let y = if y land ns <> 0 then y - nm - 1 else y in
                r.(l) <- (if f x y then 1 else 0)
              done;
              st.vr.(id) <- VInt r
            | _, _ -> exec st ins);
            k st
        in
        match op with
        | Op.Eq -> mk (fun x y -> x = y)
        | Op.Ne -> mk (fun x y -> x <> y)
        | Op.Lt -> mk (fun x y -> x < y)
        | Op.Le -> mk (fun x y -> x <= y)
        | Op.Gt -> mk (fun x y -> x > y)
        | Op.Ge -> mk (fun x y -> x >= y)
        | _ -> fallback ins
      end
    | Minstr.Vsel (ty, d, mask, a, b) ->
      let id = reg_index d and im = reg_index mask in
      let ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 in
        fun st ->
          (match st.vr.(im), st.vr.(ia), st.vr.(ib) with
          | VInt mv, VFloat xa, VFloat xb ->
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              let v = if mv.(l) <> 0 then xa.(l) else xb.(l) in
              r.(l) <-
                (if n32 then Int32.float_of_bits (Int32.bits_of_float v)
                 else v)
            done;
            st.vr.(id) <- VFloat r
          | _ -> exec st ins);
          k st
      else
        let nm, ns = norm_consts ty in
        fun st ->
          (match st.vr.(im), st.vr.(ia), st.vr.(ib) with
          | VInt mv, VInt xa, VInt xb ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let v = (if mv.(l) <> 0 then xa.(l) else xb.(l)) land nm in
              r.(l) <- (if v land ns <> 0 then v - nm - 1 else v)
            done;
            st.vr.(id) <- VInt r
          | _ -> exec st ins);
          k st
    | Minstr.Vperm (ty, d, a, b, t) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let it = reg_index t in
      let m = lanes_of ty in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 in
        fun st ->
          (match st.vr.(ia), st.vr.(ib), st.vr.(it) with
          | VFloat xa, VFloat xb, VInt [| tok |] ->
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              let p = tok + l in
              let v = if p < m then xa.(p) else xb.(p - m) in
              r.(l) <-
                (if n32 then Int32.float_of_bits (Int32.bits_of_float v)
                 else v)
            done;
            st.vr.(id) <- VFloat r
          | _ -> exec st ins);
          k st
      else
        let nm, ns = norm_consts ty in
        fun st ->
          (match st.vr.(ia), st.vr.(ib), st.vr.(it) with
          | VInt xa, VInt xb, VInt [| tok |] ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let p = tok + l in
              let v = (if p < m then xa.(p) else xb.(p - m)) land nm in
              r.(l) <- (if v land ns <> 0 then v - nm - 1 else v)
            done;
            st.vr.(id) <- VInt r
          | _ -> exec st ins);
          k st
    | Minstr.Lvsr (ty, d, a) ->
      let id = reg_index d in
      let ea_of = compile_addr a in
      let esize = Src_type.size_of ty in
      fun st ->
        st.vr.(id) <- VInt [| ea_of st mod vs / esize |];
        k st
    | Minstr.Vwidenmul (h, ty, d, a, b) -> (
      match Src_type.widen ty with
      | None -> fallback ins (* widen_exn faults at execution *)
      | Some w when Src_type.is_float ty || Src_type.is_float w -> fallback ins
      | Some w ->
        let id = reg_index d and ia = reg_index a and ib = reg_index b in
        let m = lanes_of ty in
        let off = half_off h m in
        let nm, ns = norm_consts ty in
        let wm, ws = norm_consts w in
        fun st ->
          (match st.vr.(ia), st.vr.(ib) with
          | VInt xa, VInt xb ->
            let r = Array.make (m / 2) 0 in
            for l = 0 to (m / 2) - 1 do
              let x = xa.(off + l) land nm in
              let x = if x land ns <> 0 then x - nm - 1 else x in
              let x = x land wm in
              let x = if x land ws <> 0 then x - wm - 1 else x in
              let y = xb.(off + l) land nm in
              let y = if y land ns <> 0 then y - nm - 1 else y in
              let y = y land wm in
              let y = if y land ws <> 0 then y - wm - 1 else y in
              let z = x * y land wm in
              r.(l) <- (if z land ws <> 0 then z - wm - 1 else z)
            done;
            st.vr.(id) <- VInt r
          | _, _ -> exec st ins);
          k st)
    | Minstr.Vdot (ty, d, a, b, acc) -> (
      match Src_type.widen ty with
      | None -> fallback ins
      | Some w when Src_type.is_float ty || Src_type.is_float w -> fallback ins
      | Some w ->
        let id = reg_index d and ia = reg_index a and ib = reg_index b in
        let iacc = reg_index acc in
        let m = lanes_of ty in
        let nm, ns = norm_consts ty in
        let wm, ws = norm_consts w in
        fun st ->
          (match st.vr.(ia), st.vr.(ib), st.vr.(iacc) with
          | VInt xa, VInt xb, VInt xc ->
            let r = Array.make (m / 2) 0 in
            for l = 0 to (m / 2) - 1 do
              let x = xa.(2 * l) land nm in
              let x = if x land ns <> 0 then x - nm - 1 else x in
              let x = x land wm in
              let x = if x land ws <> 0 then x - wm - 1 else x in
              let y = xb.(2 * l) land nm in
              let y = if y land ns <> 0 then y - nm - 1 else y in
              let y = y land wm in
              let y = if y land ws <> 0 then y - wm - 1 else y in
              let p0 = x * y land wm in
              let p0 = if p0 land ws <> 0 then p0 - wm - 1 else p0 in
              let x = xa.((2 * l) + 1) land nm in
              let x = if x land ns <> 0 then x - nm - 1 else x in
              let x = x land wm in
              let x = if x land ws <> 0 then x - wm - 1 else x in
              let y = xb.((2 * l) + 1) land nm in
              let y = if y land ns <> 0 then y - nm - 1 else y in
              let y = y land wm in
              let y = if y land ws <> 0 then y - wm - 1 else y in
              let p1 = x * y land wm in
              let p1 = if p1 land ws <> 0 then p1 - wm - 1 else p1 in
              let acc = xc.(l) land wm in
              let acc = if acc land ws <> 0 then acc - wm - 1 else acc in
              let s = (p0 + p1) land wm in
              let s = if s land ws <> 0 then s - wm - 1 else s in
              let z = (acc + s) land wm in
              r.(l) <- (if z land ws <> 0 then z - wm - 1 else z)
            done;
            st.vr.(id) <- VInt r
          | _ -> exec st ins);
          k st)
    | Minstr.Vunpack (h, ty, d, s) -> (
      match Src_type.widen ty with
      | None -> fallback ins
      | Some w when Src_type.is_float ty || Src_type.is_float w -> fallback ins
      | Some w ->
        let id = reg_index d and is_ = reg_index s in
        let m = lanes_of ty in
        let off = half_off h m in
        let nm, ns = norm_consts ty in
        let wm, ws = norm_consts w in
        fun st ->
          (match st.vr.(is_) with
          | VInt xa ->
            let r = Array.make (m / 2) 0 in
            for l = 0 to (m / 2) - 1 do
              let x = xa.(off + l) land nm in
              let x = if x land ns <> 0 then x - nm - 1 else x in
              let x = x land wm in
              r.(l) <- (if x land ws <> 0 then x - wm - 1 else x)
            done;
            st.vr.(id) <- VInt r
          | _ -> exec st ins);
          k st)
    | Minstr.Vpack (ty, d, a, b) -> (
      match Src_type.narrow ty with
      | None -> fallback ins (* narrow_exn faults at execution *)
      | Some nt when Src_type.is_float ty || Src_type.is_float nt ->
        fallback ins
      | Some nt ->
        let id = reg_index d and ia = reg_index a and ib = reg_index b in
        let m = lanes_of ty in
        let nm, ns = norm_consts ty in
        let pm, ps = norm_consts nt in
        fun st ->
          (match st.vr.(ia), st.vr.(ib) with
          | VInt xa, VInt xb ->
            let r = Array.make (2 * m) 0 in
            for l = 0 to (2 * m) - 1 do
              let x = (if l < m then xa.(l) else xb.(l - m)) land nm in
              let x = if x land ns <> 0 then x - nm - 1 else x in
              let x = x land pm in
              r.(l) <- (if x land ps <> 0 then x - pm - 1 else x)
            done;
            st.vr.(id) <- VInt r
          | _, _ -> exec st ins);
          k st)
    | Minstr.Vcvt (t1, t2, d, s) -> (
      let id = reg_index d and is_ = reg_index s in
      let m = lanes_of t1 in
      match Src_type.is_float t1, Src_type.is_float t2 with
      | false, false ->
        let nm, ns = norm_consts t1 in
        let pm, ps = norm_consts t2 in
        fun st ->
          (match st.vr.(is_) with
          | VInt xa ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let x = xa.(l) land nm in
              let x = if x land ns <> 0 then x - nm - 1 else x in
              let x = x land pm in
              r.(l) <- (if x land ps <> 0 then x - pm - 1 else x)
            done;
            st.vr.(id) <- VInt r
          | _ -> exec st ins);
          k st
      | true, true ->
        let n32a = t1 = Src_type.F32 and n32b = t2 = Src_type.F32 in
        fun st ->
          (match st.vr.(is_) with
          | VFloat xa ->
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              let x = xa.(l) in
              let x =
                if n32a then Int32.float_of_bits (Int32.bits_of_float x)
                else x
              in
              r.(l) <-
                (if n32b then Int32.float_of_bits (Int32.bits_of_float x)
                 else x)
            done;
            st.vr.(id) <- VFloat r
          | _ -> exec st ins);
          k st
      | _ -> fallback ins)
    | Minstr.Vinterleave (h, ty, d, a, b) ->
      let id = reg_index d and ia = reg_index a and ib = reg_index b in
      let m = lanes_of ty in
      let off = half_off h m in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 in
        fun st ->
          (match st.vr.(ia), st.vr.(ib) with
          | VFloat xa, VFloat xb ->
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              let v =
                if l mod 2 = 0 then xa.(off + (l / 2)) else xb.(off + (l / 2))
              in
              r.(l) <-
                (if n32 then Int32.float_of_bits (Int32.bits_of_float v)
                 else v)
            done;
            st.vr.(id) <- VFloat r
          | _, _ -> exec st ins);
          k st
      else
        let nm, ns = norm_consts ty in
        fun st ->
          (match st.vr.(ia), st.vr.(ib) with
          | VInt xa, VInt xb ->
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let v =
                (if l mod 2 = 0 then xa.(off + (l / 2))
                 else xb.(off + (l / 2)))
                land nm
              in
              r.(l) <- (if v land ns <> 0 then v - nm - 1 else v)
            done;
            st.vr.(id) <- VInt r
          | _, _ -> exec st ins);
          k st
    | Minstr.Vextract (ty, stride, offset, d, parts) ->
      let id = reg_index d in
      let ids = Array.of_list (List.map reg_index parts) in
      let nparts = Array.length ids in
      let m = lanes_of ty in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 in
        fun st ->
          let ok = ref true in
          let ps = Array.make (max 1 nparts) [||] in
          for j = 0 to nparts - 1 do
            match st.vr.(ids.(j)) with
            | VFloat a -> ps.(j) <- a
            | _ -> ok := false
          done;
          if not !ok then exec st ins
          else begin
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              let p = offset + (l * stride) in
              let v = ps.(p / m).(p mod m) in
              r.(l) <-
                (if n32 then Int32.float_of_bits (Int32.bits_of_float v)
                 else v)
            done;
            st.vr.(id) <- VFloat r
          end;
          k st
      else
        let nm, ns = norm_consts ty in
        fun st ->
          let ok = ref true in
          let ps = Array.make (max 1 nparts) [||] in
          for j = 0 to nparts - 1 do
            match st.vr.(ids.(j)) with
            | VInt a -> ps.(j) <- a
            | _ -> ok := false
          done;
          if not !ok then exec st ins
          else begin
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              let p = offset + (l * stride) in
              let v = ps.(p / m).(p mod m) land nm in
              r.(l) <- (if v land ns <> 0 then v - nm - 1 else v)
            done;
            st.vr.(id) <- VInt r
          end;
          k st
    | Minstr.Vinsert (ty, d, v, n, s) ->
      let id = reg_index d and iv = reg_index v and is_ = reg_index s in
      let m = lanes_of ty in
      if Src_type.is_float ty then
        let n32 = ty = Src_type.F32 in
        fun st ->
          (match st.vr.(iv) with
          | VFloat xa ->
            if n < 0 || n >= m then faultf "vinsert lane %d out of %d" n m;
            let r = Array.make m 0.0 in
            for l = 0 to m - 1 do
              let x = if l = n then st.fpr.(is_) else xa.(l) in
              r.(l) <-
                (if n32 then Int32.float_of_bits (Int32.bits_of_float x)
                 else x)
            done;
            st.vr.(id) <- VFloat r
          | _ -> exec st ins);
          k st
      else
        let nz i = Src_type.normalize_int ty i in
        fun st ->
          (match st.vr.(iv) with
          | VInt xa ->
            if n < 0 || n >= m then faultf "vinsert lane %d out of %d" n m;
            let r = Array.make m 0 in
            for l = 0 to m - 1 do
              r.(l) <- nz (if l = n then st.gpr.(is_) else xa.(l))
            done;
            st.vr.(id) <- VInt r
          | _ -> exec st ins);
          k st
    | Minstr.Scmp _ | Minstr.Vcmp _
    | Minstr.VMaskedLoad _ | Minstr.VMaskedStore _ ->
      fallback ins
  in
  (* Cut the code into blocks; [block_of] maps each leader pc (and pc n,
     the halt) to its block index. *)
  let n = Array.length instrs in
  let block_of = Array.make (n + 1) (-1) in
  let nb = ref 0 in
  let lead pc =
    if pc < n && block_of.(pc) < 0 then begin
      block_of.(pc) <- !nb;
      incr nb
    end
  in
  lead 0;
  Array.iteri
    (fun pc ins ->
      match ins with
      | Minstr.Label _ -> lead pc
      | Minstr.Jmp _ | Minstr.Br _ -> lead (pc + 1)
      | _ -> ())
    instrs;
  let nb = !nb in
  block_of.(n) <- nb;
  let label_block l =
    Option.map (fun pc -> block_of.(pc)) (Hashtbl.find_opt labels l)
  in
  (* A block's exit: the action of its terminator, or the fall-through
     into the next leader. *)
  let compile_exit pc : state -> int =
    let next = block_of.(pc + 1) in
    match instrs.(pc) with
    | Minstr.Jmp l -> (
      match label_block l with
      | Some t -> fun _ -> t
      | None -> fun _ -> faultf "undefined label %d" l)
    | Minstr.Br (op, a, b, l) -> (
      let ia = reg_index a and ib = reg_index b in
      (* Br compares at I64, where normalization is the identity: the six
         comparisons reduce to raw integer compares. *)
      match label_block l, op with
      | Some t, Op.Eq -> fun st -> if st.gpr.(ia) = st.gpr.(ib) then t else next
      | Some t, Op.Ne -> fun st -> if st.gpr.(ia) <> st.gpr.(ib) then t else next
      | Some t, Op.Lt -> fun st -> if st.gpr.(ia) < st.gpr.(ib) then t else next
      | Some t, Op.Le -> fun st -> if st.gpr.(ia) <= st.gpr.(ib) then t else next
      | Some t, Op.Gt -> fun st -> if st.gpr.(ia) > st.gpr.(ib) then t else next
      | Some t, Op.Ge -> fun st -> if st.gpr.(ia) >= st.gpr.(ib) then t else next
      | t, _ ->
        fun st ->
          if branch_taken op st.gpr.(ia) st.gpr.(ib) then
            match t with
            | Some t -> t
            | None -> faultf "undefined label %d" l
          else next)
    | ins -> compile_action ins (fun _ -> next)
  in
  let p_blocks =
    Array.make nb { b_start = 0; b_count = 0; b_cost = 0; b_run = (fun _ -> 0) }
  in
  let start = ref 0 in
  for pc = 0 to n - 1 do
    if block_of.(pc + 1) >= 0 then begin
      (* [pc] ends the block that began at [!start]: thread it backwards. *)
      let run = ref (compile_exit pc) in
      let cost = ref (instr_cost target ~x87 instrs.(pc)) in
      for q = pc - 1 downto !start do
        run := compile_action instrs.(q) !run;
        cost := !cost + instr_cost target ~x87 instrs.(q)
      done;
      p_blocks.(block_of.(!start)) <-
        { b_start = !start; b_count = pc - !start + 1; b_cost = !cost;
          b_run = !run };
      start := pc + 1
    end
  done;
  (* Parameter binders: per-name closures that keep List.assoc_opt (the
     argument list varies per run) but pre-resolve type, class and
     location.  Same faults, same normalization as [run]. *)
  let p_binders =
    Array.of_list
      (List.map
         (fun (name, sty, loc) ->
           match (loc : Mfun.param_loc) with
           | Mfun.In_reg r -> (
             let id = reg_index r in
             match r.Minstr.cls with
             | Minstr.GPR ->
               fun st args ->
                 (match List.assoc_opt name args with
                 | Some v ->
                   st.gpr.(id) <- Value.to_int (Value.normalize sty v)
                 | None -> faultf "missing scalar argument %s" name)
             | Minstr.FPR ->
               fun st args ->
                 (match List.assoc_opt name args with
                 | Some v ->
                   st.fpr.(id) <- Value.to_float (Value.normalize sty v)
                 | None -> faultf "missing scalar argument %s" name)
             | Minstr.VR ->
               fun _ args ->
                 (match List.assoc_opt name args with
                 | Some _ -> faultf "vector parameter %s" name
                 | None -> faultf "missing scalar argument %s" name))
           | Mfun.In_stack (ty, off) ->
             fun st args ->
               (match List.assoc_opt name args with
               | Some v ->
                 let v = Value.normalize sty v in
                 Layout.write_value st.mem ty
                   (st.layout.Layout.stack_base + off)
                   v
               | None -> faultf "missing scalar argument %s" name))
         f.Mfun.param_regs)
  in
  let plan =
    {
      p_target = target;
      p_mfun = f;
      p_blocks;
      p_syms;
      p_bases = bases;
      p_binders;
      p_state = None;
    }
  in
  Vapor_obs.Stage.record "prepare" stage_t0;
  plan

(* [blk] crosses the fuel limit: its last instruction would fail [run]'s
   per-pc fuel test, so it never reaches its terminator.  Step it with
   [run]'s accounting up to the faulting test; an instruction fault on
   the way surfaces in the same order as in [run]. *)
let step_to_fuel p st blk fuel =
  let f = p.p_mfun in
  let x87 = f.Mfun.fp_unit = Mfun.Fp_x87 in
  let pc = ref blk.b_start in
  while st.executed <= fuel do
    let ins = f.Mfun.instrs.(!pc) in
    st.executed <- st.executed + 1;
    st.cycles <- st.cycles + instr_cost p.p_target ~x87 ins;
    (match ins with
    | Minstr.Label _ -> ()
    | ins -> exec st ins);
    incr pc
  done;
  faultf "fuel exhausted (infinite loop?)"

let run_plan ?(fuel = 200_000_000) (p : plan) (layout : Layout.t)
    (mem : Bytes.t) ~(scalar_args : (string * Value.t) list) : result =
  let f = p.p_mfun in
  let st =
    match p.p_state with
    | Some st ->
      st.layout <- layout;
      st.mem <- mem;
      Array.fill st.gpr 0 (Array.length st.gpr) 0;
      Array.fill st.fpr 0 (Array.length st.fpr) 0.0;
      Array.fill st.vr 0 (Array.length st.vr) VUndef;
      Array.fill st.vspill 0 (Array.length st.vspill) VUndef;
      st.cycles <- 0;
      st.executed <- 0;
      st
    | None ->
      let st =
        {
          target = p.p_target;
          layout;
          mem;
          gpr = Array.make (max 1 f.Mfun.n_gpr) 0;
          fpr = Array.make (max 1 f.Mfun.n_fpr) 0.0;
          vr = Array.make (max 1 f.Mfun.n_vr) VUndef;
          vspill = Array.make (max 1 f.Mfun.n_vspill) VUndef;
          cycles = 0;
          executed = 0;
        }
      in
      p.p_state <- Some st;
      st
  in
  (* Resolve symbol bases for this run; failures are recorded and only
     surface (as Layout.base_of's own exception) if an address actually
     uses the symbol, exactly as in [run]. *)
  for k = 0 to Array.length p.p_syms - 1 do
    p.p_bases.(k) <-
      (match Layout.base_of layout p.p_syms.(k) with
      | b -> b
      | exception Invalid_argument _ -> min_int)
  done;
  let binders = p.p_binders in
  for k = 0 to Array.length binders - 1 do
    binders.(k) st scalar_args
  done;
  let blocks = p.p_blocks in
  let nb = Array.length blocks in
  let b = ref 0 in
  while !b < nb do
    let blk = Array.unsafe_get blocks !b in
    if st.executed + blk.b_count - 1 > fuel then step_to_fuel p st blk fuel;
    st.executed <- st.executed + blk.b_count;
    st.cycles <- st.cycles + blk.b_cost;
    b := blk.b_run st
  done;
  { r_cycles = st.cycles; r_instructions = st.executed }
