(* Linear-scan register allocation with spilling (Poletto & Sarkar style),
   on dense per-class arrays indexed by virtual register id.

   Intervals are [first occurrence, last occurrence] per virtual register,
   conservatively extended to cover any loop region they partially overlap
   (so loop-carried values stay live across backedges).  When the register
   file is exhausted, the active interval with the furthest end is spilled
   to a stack slot; spill code uses reserved scratch registers.

   Phases, for n instructions, v virtual registers, L loop regions and k
   allocatable registers of a class:

   - liveness: one walk over the instructions fills the interval arrays
     of all three classes at once — O(n);
   - loop extension: each interval iterates over the loop regions until its
     own end is stable — O(v·L) per round, one round per loop it is
     stretched into;
   - scan: intervals sorted by (start, vreg) — O(v log v) — take registers
     from a LIFO free list; expiry and victim choice walk the active list
     — O(v·k);
   - rewrite: an instruction whose operands all got registers is mapped
     straight through the assignment arrays; only instructions touching a
     spilled value build a scratch mapping and reload/store code — O(n).

   The number of *allocatable* registers is a code-generator quality knob:
   the Mono profile exposes fewer, producing real spill traffic whose
   cycles the simulator then charges — this is mechanism behind the
   paper's "lack of proper global register allocation" effects. *)

open Vapor_ir

type budget = {
  b_gpr : int;
  b_fpr : int;
  b_vr : int;
}

let budget_of_cls b (cls : Minstr.cls) =
  match cls with
  | Minstr.GPR -> b.b_gpr
  | Minstr.FPR -> b.b_fpr
  | Minstr.VR -> b.b_vr

(* Loop regions: [start,stop] instruction index ranges of backedges. *)
let loop_regions (instrs : Minstr.t array) =
  let label_pos = Hashtbl.create 16 in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Minstr.Label l -> Hashtbl.replace label_pos l pc
      | _ -> ())
    instrs;
  let regions = ref [] in
  Array.iteri
    (fun pc ins ->
      let target =
        match ins with
        | Minstr.Jmp l | Minstr.Br (_, _, _, l) -> Hashtbl.find_opt label_pos l
        | _ -> None
      in
      match target with
      | Some t when t < pc -> regions := (t, pc) :: !regions
      | Some _ | None -> ())
    instrs;
  !regions

(* The live intervals of one register class, indexed by vreg id.  A vreg
   that never occurs has [stop < 0]. *)
type intervals = {
  mutable start_ : int array;
  mutable stop : int array;
  mutable first_def : int array; (* max_int when never defined (parameters) *)
}

let create_intervals n =
  {
    start_ = Array.make n max_int;
    stop = Array.make n (-1);
    first_def = Array.make n max_int;
  }

(* Grow the arrays to hold [id]: emit numbers vregs densely from 0 and
   sizes them exactly, but hand-built functions need not. *)
let ensure t id =
  let n = Array.length t.stop in
  if id >= n then begin
    let n' = max (id + 1) (2 * n) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    t.start_ <- grow t.start_ max_int;
    t.stop <- grow t.stop (-1);
    t.first_def <- grow t.first_def max_int
  end

(* Record an occurrence at [pc]; the walk visits pcs in increasing order. *)
let touch t pc id =
  ensure t id;
  if t.stop.(id) < 0 then t.start_.(id) <- pc;
  t.stop.(id) <- pc

(* Extend intervals across backedges only for values genuinely live across
   iterations:

   - defined before a loop and used inside it: live until the loop's end
     (the use recurs every iteration);
   - used before being defined inside a loop (loop-carried): live across
     the whole loop;
   - temporaries defined then used within one iteration stay short.

   Only an interval's own [stop] moves, so each interval settles
   independently on the same least fixpoint a global iteration reaches. *)
let extend (lo : int array) (hi : int array) t =
  for id = 0 to Array.length t.stop - 1 do
    if t.stop.(id) >= 0 then begin
      let start = t.start_.(id) in
      let carried = t.first_def.(id) > start in
      let stop = ref t.stop.(id) in
      let changed = ref true in
      while !changed do
        changed := false;
        for k = 0 to Array.length lo - 1 do
          if
            hi.(k) > !stop && !stop >= lo.(k) && start <= hi.(k)
            && (start < lo.(k) || carried)
          then begin
            stop := hi.(k);
            changed := true
          end
        done
      done;
      t.stop.(id) <- !stop
    end
  done

(* Slot [s] in an assignment array, and back (the map is its own
   inverse); physical registers are >= 0. *)
let slot_code s = -1 - s

(* Linear scan over one class with [nphys] allocatable registers.  Returns
   the assignment per vreg (physical register, or [slot_code] of a stack
   slot) and the slot count.  The free list is LIFO and starts [0; 1; ..];
   the active list holds the most recent interval first (here: at the top
   of the array); the spill victim is the first active interval, in list
   order, with the strictly furthest end, else the new interval itself.
   These orders decide the output. *)
let scan t nphys =
  let start = t.start_ and stop = t.stop in
  let n = Array.length stop in
  (* Sort keys [start * n + vreg] order intervals by (start, vreg). *)
  let count = ref 0 in
  for id = 0 to n - 1 do
    if stop.(id) >= 0 then incr count
  done;
  let keys = Array.make !count 0 in
  let k = ref 0 in
  for id = 0 to n - 1 do
    if stop.(id) >= 0 then begin
      keys.(!k) <- (start.(id) * n) + id;
      incr k
    end
  done;
  Array.stable_sort Int.compare keys;
  let assign = Array.make n 0 in
  let free = Array.init nphys (fun i -> nphys - 1 - i) in
  let nfree = ref nphys in
  let active = Array.make nphys 0 in
  let nactive = ref 0 in
  let slots = ref 0 in
  let expire pos =
    for k = !nactive - 1 downto 0 do
      let id = active.(k) in
      if stop.(id) < pos then begin
        free.(!nfree) <- assign.(id);
        incr nfree
      end
    done;
    let w = ref 0 in
    for k = 0 to !nactive - 1 do
      let id = active.(k) in
      if stop.(id) >= pos then begin
        active.(!w) <- id;
        incr w
      end
    done;
    nactive := !w
  in
  Array.iter
    (fun key ->
      let id = key mod n in
      expire start.(id);
      if !nfree > 0 then begin
        decr nfree;
        assign.(id) <- free.(!nfree);
        active.(!nactive) <- id;
        incr nactive
      end
      else begin
        let victim = ref (-1) and furthest = ref stop.(id) in
        for k = !nactive - 1 downto 0 do
          if stop.(active.(k)) > !furthest then begin
            victim := k;
            furthest := stop.(active.(k))
          end
        done;
        let v = !victim in
        if v < 0 then assign.(id) <- slot_code !slots
        else begin
          let vid = active.(v) in
          assign.(id) <- assign.(vid);
          assign.(vid) <- slot_code !slots;
          Array.blit active (v + 1) active v (!nactive - v - 1);
          active.(!nactive - 1) <- id
        end;
        incr slots
      end)
    keys;
  assign, !slots

(* Bytes per spill slot of a scalar class. *)
let slot_bytes (cls : Minstr.cls) =
  match cls with
  | Minstr.GPR | Minstr.FPR -> 8
  | Minstr.VR -> invalid_arg "slot_bytes: vectors use VSpill slots"

(* The memory type used to spill a scalar register of a class. *)
let spill_ty (cls : Minstr.cls) =
  match cls with
  | Minstr.GPR -> Src_type.I64
  | Minstr.FPR -> Src_type.F64
  | Minstr.VR -> invalid_arg "spill_ty: vectors use VSpill slots"

(* Scratch registers reserved per class for spill rewriting (Vdot can need
   four distinct vector operands). *)
let scratch_of (cls : Minstr.cls) =
  match cls with
  | Minstr.GPR | Minstr.FPR -> 3
  | Minstr.VR -> 4

(* Rewrite a function to physical registers, inserting spill code.
   Returns the rewritten function. *)
let run (budget : budget) (f : Mfun.t) : Mfun.t =
  let instrs = f.Mfun.instrs in
  let g = create_intervals f.Mfun.n_gpr in
  let fp = create_intervals f.Mfun.n_fpr in
  let v = create_intervals f.Mfun.n_vr in
  let table (cls : Minstr.cls) =
    match cls with
    | Minstr.GPR -> g
    | Minstr.FPR -> fp
    | Minstr.VR -> v
  in
  let pc = ref 0 in
  let use (r : Minstr.reg) = touch (table r.Minstr.cls) !pc r.Minstr.id in
  let def (r : Minstr.reg) =
    let t = table r.Minstr.cls in
    touch t !pc r.Minstr.id;
    if t.first_def.(r.Minstr.id) = max_int then t.first_def.(r.Minstr.id) <- !pc
  in
  Array.iteri
    (fun i ins ->
      pc := i;
      Minstr.iter_regs ~use ~def ins)
    instrs;
  (* Parameters are seeded before execution: live from entry, even when
     the body never reads them (else their register could be handed to
     another parameter). *)
  List.iter
    (fun (_, _, loc) ->
      match loc with
      | Mfun.In_reg (r : Minstr.reg) ->
        let t = table r.Minstr.cls in
        ensure t r.Minstr.id;
        if t.stop.(r.Minstr.id) < 0 then t.stop.(r.Minstr.id) <- 0;
        t.start_.(r.Minstr.id) <- 0
      | Mfun.In_stack _ -> ())
    f.Mfun.param_regs;
  let regions = Array.of_list (loop_regions instrs) in
  let lo = Array.map fst regions and hi = Array.map snd regions in
  let usable cls = max 1 (budget_of_cls budget cls - scratch_of cls) in
  let alloc cls =
    let t = table cls in
    extend lo hi t;
    scan t (usable cls)
  in
  let g_assign, g_slots = alloc Minstr.GPR in
  let f_assign, f_slots = alloc Minstr.FPR in
  let v_assign, v_slots = alloc Minstr.VR in
  let assign_of (r : Minstr.reg) =
    match r.Minstr.cls with
    | Minstr.GPR -> g_assign.(r.Minstr.id)
    | Minstr.FPR -> f_assign.(r.Minstr.id)
    | Minstr.VR -> v_assign.(r.Minstr.id)
  in
  (* One shared record per physical register: allocatable ones first,
     then the class's scratch registers. *)
  let phys_regs cls =
    Array.init (usable cls + scratch_of cls) (fun id -> { Minstr.cls; id })
  in
  let g_phys = phys_regs Minstr.GPR in
  let f_phys = phys_regs Minstr.FPR in
  let v_phys = phys_regs Minstr.VR in
  let phys (cls : Minstr.cls) p =
    match cls with
    | Minstr.GPR -> g_phys.(p)
    | Minstr.FPR -> f_phys.(p)
    | Minstr.VR -> v_phys.(p)
  in
  (* Stack frame layout for scalar spills: [gpr slots][fpr slots].
     Vector spills use the simulator's dedicated slot file (VSpill). *)
  let gpr_off = 0 in
  let fpr_off = gpr_off + (g_slots * slot_bytes Minstr.GPR) in
  let stack_bytes = fpr_off + (f_slots * slot_bytes Minstr.FPR) in
  let slot_addr (cls : Minstr.cls) slot =
    let off =
      match cls with
      | Minstr.GPR -> gpr_off + (slot * slot_bytes cls)
      | Minstr.FPR -> fpr_off + (slot * slot_bytes cls)
      | Minstr.VR -> invalid_arg "slot_addr: vector"
    in
    { (Minstr.plain_addr "$stack") with Minstr.disp = off }
  in
  let slot_of r = slot_code (assign_of r) in
  (* Vector spill slots start above any demotion slots already present. *)
  let vspill_base = f.Mfun.n_vspill in
  let spill_load (r : Minstr.reg) scratch_reg =
    match r.Minstr.cls with
    | Minstr.VR -> Minstr.VReload (scratch_reg, vspill_base + slot_of r)
    | cls -> Minstr.Load (spill_ty cls, scratch_reg, slot_addr cls (slot_of r))
  in
  let spill_store (r : Minstr.reg) scratch_reg =
    match r.Minstr.cls with
    | Minstr.VR -> Minstr.VSpill (vspill_base + slot_of r, scratch_reg)
    | cls -> Minstr.Store (spill_ty cls, slot_addr cls (slot_of r), scratch_reg)
  in
  let out = ref (Array.make (Array.length instrs + 16) (Minstr.Label 0)) in
  let len = ref 0 in
  let emit i =
    if !len = Array.length !out then begin
      let bigger = Array.make (2 * !len) (Minstr.Label 0) in
      Array.blit !out 0 bigger 0 !len;
      out := bigger
    end;
    !out.(!len) <- i;
    incr len
  in
  (* The common case maps an instruction in one pass; meeting a spilled
     operand flags it, and the instruction is redone by [rewrite_spilled]. *)
  let spilled = ref false in
  let to_phys_or_flag (r : Minstr.reg) =
    let p = assign_of r in
    if p < 0 then begin
      spilled := true;
      r
    end
    else phys r.Minstr.cls p
  in
  (* An instruction touching spilled values: reload spilled uses into
     scratch registers (assigned in order per class), compute into a
     scratch register for a spilled def, then store it back. *)
  let rewrite_spilled ins =
    let used = [| 0; 0; 0 |] in
    let scratch_for (r : Minstr.reg) =
      let c =
        match r.Minstr.cls with
        | Minstr.GPR -> 0
        | Minstr.FPR -> 1
        | Minstr.VR -> 2
      in
      let n = used.(c) in
      used.(c) <- n + 1;
      if n >= scratch_of r.Minstr.cls then
        invalid_arg "regalloc: out of scratch registers";
      phys r.Minstr.cls (usable r.Minstr.cls + n)
    in
    let mapping = ref [] in
    let def_stores = ref [] in
    Minstr.iter_regs ins
      ~use:(fun r ->
        if assign_of r < 0 && not (List.mem_assoc r !mapping) then begin
          let s = scratch_for r in
          mapping := (r, s) :: !mapping;
          emit (spill_load r s)
        end)
      ~def:(fun r ->
        if assign_of r < 0 then begin
          let s =
            match List.assoc_opt r !mapping with
            | Some s -> s
            | None ->
              let s = scratch_for r in
              mapping := (r, s) :: !mapping;
              s
          in
          def_stores := spill_store r s :: !def_stores
        end);
    emit
      (Minstr.map_regs
         (fun r ->
           match List.assoc_opt r !mapping with
           | Some s -> s
           | None -> phys r.Minstr.cls (assign_of r))
         ins);
    List.iter emit !def_stores
  in
  Array.iter
    (fun ins ->
      spilled := false;
      let mapped = Minstr.map_regs to_phys_or_flag ins in
      if !spilled then rewrite_spilled ins else emit mapped)
    instrs;
  let param_regs =
    List.map
      (fun (name, sty, loc) ->
        match loc with
        | Mfun.In_stack _ -> name, sty, loc
        | Mfun.In_reg r ->
          let p = assign_of r in
          if p >= 0 then name, sty, Mfun.In_reg (phys r.Minstr.cls p)
          else
            let ty = spill_ty r.Minstr.cls in
            ( name,
              sty,
              Mfun.In_stack (ty, (slot_addr r.Minstr.cls (slot_of r)).Minstr.disp) ))
      f.Mfun.param_regs
  in
  {
    f with
    Mfun.instrs = Array.sub !out 0 !len;
    n_gpr = budget.b_gpr;
    n_fpr = budget.b_fpr;
    n_vr = max 1 budget.b_vr;
    param_regs;
    stack_bytes;
    n_vspill = f.Mfun.n_vspill + v_slots;
  }
