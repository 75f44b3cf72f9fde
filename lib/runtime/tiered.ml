(* Tiered execution: interpret cold bodies, JIT hot ones through the code
   cache, and record every tier transition. *)

module B = Vapor_vecir.Bytecode
module Encode = Vapor_vecir.Encode
module Veval = Vapor_vecir.Veval
module Vfast = Vapor_vecir.Vfast
module Target = Vapor_targets.Target
module Profile = Vapor_jit.Profile
module Compile = Vapor_jit.Compile
module Eval = Vapor_ir.Eval
module Buffer_ = Vapor_ir.Buffer_
module Exec = Vapor_harness.Exec
module Tracer = Vapor_obs.Tracer
module Store = Vapor_store.Store

type tier =
  | Interpreter
  | Jit

let tier_to_string = function
  | Interpreter -> "interp"
  | Jit -> "jit"

type transition = {
  at_invocation : int;
  to_tier : tier;
}

type kstate = {
  ks_key : Digest.key;
  ks_label : string;
  mutable ks_invocations : int;
  mutable ks_interp_runs : int;
  mutable ks_jit_runs : int;
  mutable ks_tier : tier;
  mutable ks_transitions : transition list;
  mutable ks_cold_compile_us : float;
  mutable ks_quarantined : bool;
}

(* When the differential oracle re-checks a JIT body against the
   interpreter: on its first JIT run, and every [op_sample_every]-th run
   after that (0 disables sampling). *)
type oracle_policy = {
  op_first_run : bool;
  op_sample_every : int;
}

let oracle_always = { op_first_run = true; op_sample_every = 1 }

type guard = {
  g_oracle : oracle_policy option;
  g_faults : Faults.t option;
  g_retry_budget : int;
}

let no_guard = { g_oracle = None; g_faults = None; g_retry_budget = 3 }

(* Which execution engine serves invocations.  [Fast] (the default) runs
   slot-compiled bytecode bodies in the interpreter tier and pre-resolved
   plans in the JIT tier; [Reference] runs the tree-walking Veval and the
   instruction-by-instruction Simulator.run — the baseline the fast engine
   is benchmarked (and differentially checked) against. *)
type engine =
  | Reference
  | Fast

let engine_to_string = function
  | Reference -> "reference"
  | Fast -> "fast"

let engine_of_string = function
  | "reference" -> Some Reference
  | "fast" -> Some Fast
  | _ -> None

type t = {
  cache : Code_cache.t;
  threshold : int;
  st : Stats.t;
  states : (Digest.key, kstate) Hashtbl.t;
  guard : guard;
  engine : engine;
  mutable tracer : Tracer.t;
      (* mutable so recovery replay can silence spans while re-executing
         a journal suffix: the crash-free run emitted each event's spans
         exactly once, and the recovered trace must match *)
  store : Vapor_store.Store.session option;
      (* write-through persistent tier: probed on in-memory miss,
         published after every real compile *)
  (* slot-compiled interpreter bodies, cached per (bytecode, eval mode);
     the mode key is the vector size in bytes, 0 for scalarized *)
  slot_bodies : (Digest.t * int, Vfast.compiled) Hashtbl.t;
  (* plain fields, not Stats counters: the report layer must stay
     byte-identical between engines *)
  mutable slot_compiles : int;
  mutable slot_hits : int;
}

let create ?stats ?(guard = no_guard) ?(engine = Fast)
    ?(tracer = Tracer.disabled) ?store ~cache ~hotness_threshold () =
  {
    cache;
    threshold = max 0 hotness_threshold;
    st = (match stats with Some s -> s | None -> Code_cache.stats cache);
    states = Hashtbl.create 32;
    guard;
    engine;
    tracer;
    store;
    slot_bodies = Hashtbl.create 32;
    slot_compiles = 0;
    slot_hits = 0;
  }

(* What the guard machinery concluded about this invocation — the signal
   the serving layer's per-digest circuit breaker consumes.  [Clean] also
   covers unguarded runs (nothing checked, nothing failed). *)
type run_outcome =
  | Clean
  | Oracle_mismatch
  | Exec_fault
  | Compile_error

let run_outcome_to_string = function
  | Clean -> "clean"
  | Oracle_mismatch -> "oracle_mismatch"
  | Exec_fault -> "exec_fault"
  | Compile_error -> "compile_error"

type run = {
  r_tier : tier;
  r_cycles : int;
  r_compile_us : float;
  r_cache : Code_cache.outcome option;
  r_outcome : run_outcome;
  r_real_compile : bool;
      (* an actual Compile.compile ran for this invocation (as opposed
         to a cache hit or a store-served body); the admission journal
         records it so recovery replay can force the same path *)
}

(* First-order interpreter cost model: a fixed entry cost, a dispatch cost
   per data element touched, and a decode cost per bytecode byte. *)
let interp_cycles (vk : B.vkernel) ~args =
  let elems =
    List.fold_left
      (fun acc (_, a) ->
        match a with
        | Eval.Array b -> acc + Buffer_.length b
        | Eval.Scalar _ -> acc)
      0 args
  in
  200 + (20 * elems) + (2 * Encode.size vk)

let state_of t key label =
  match Hashtbl.find_opt t.states key with
  | Some s -> s
  | None ->
    let s =
      {
        ks_key = key;
        ks_label = label;
        ks_invocations = 0;
        ks_interp_runs = 0;
        ks_jit_runs = 0;
        ks_tier = Interpreter;
        ks_transitions = [];
        ks_cold_compile_us = 0.0;
        ks_quarantined = false;
      }
    in
    Hashtbl.replace t.states key s;
    s

let veval_mode (target : Target.t) =
  if Target.has_simd target then Veval.Vector target.Target.vs
  else Veval.Scalarized

let array_args args =
  List.filter_map
    (function n, Eval.Array b -> Some (n, b) | _, Eval.Scalar _ -> None)
    args

let args_equal a b =
  List.for_all2
    (fun (_, b1) (_, b2) -> Buffer_.equal b1 b2)
    (array_args a) (array_args b)

(* Overwrite the caller's array buffers with the oracle's: after a
   mismatch the interpreter's answer is the one the caller gets. *)
let restore_args ~into ~from =
  List.iter2
    (fun (_, dst) (_, src) ->
      for i = 0 to Buffer_.length dst - 1 do
        Buffer_.set dst i (Buffer_.get src i)
      done)
    (array_args into) (array_args from)

(* Evict the body and pin the kernel back to the interpreter tier: the
   quarantine lifecycle.  A quarantined state is never re-promoted. *)
let quarantine t (s : kstate) =
  ignore (Code_cache.remove t.cache s.ks_key);
  Stats.incr t.st "guard.quarantines";
  s.ks_quarantined <- true;
  if s.ks_tier = Jit then begin
    s.ks_tier <- Interpreter;
    s.ks_transitions <-
      { at_invocation = s.ks_invocations; to_tier = Interpreter }
      :: s.ks_transitions;
    Stats.incr t.st "tier.demotions"
  end

let mode_key = function
  | Veval.Vector vs -> vs
  | Veval.Scalarized -> 0

let slot_body t ~digest ~mode vk =
  let key = digest, mode_key mode in
  match Hashtbl.find_opt t.slot_bodies key with
  | Some c ->
    t.slot_hits <- t.slot_hits + 1;
    c
  | None ->
    let c = Vfast.compile vk ~mode in
    t.slot_compiles <- t.slot_compiles + 1;
    Hashtbl.replace t.slot_bodies key c;
    c

(* One interpreter execution with tier bookkeeping.  The fast engine runs
   the slot-compiled body (cached per bytecode digest and mode); the
   reference engine — and any quarantined kernel — runs Veval.  The
   modeled cycle charge is the same either way: the model prices the
   abstract interpreter, not our implementation of it.

   Under a guard, slot bodies get the same treatment as JIT bodies: the
   fault injector may corrupt the delivered body, and the differential
   oracle re-runs the reference interpreter on a copy of the arguments
   (first run, then sampled) — on a mismatch the body is evicted, the
   kernel quarantined, and the caller gets the reference answer. *)
let interp_run ?(force_check = false) t (s : kstate) ~digest
    ~(target : Target.t) vk ~args =
  let mode = veval_mode target in
  let cycles = interp_cycles vk ~args in
  let extra, mismatched =
    if t.engine = Reference || s.ks_quarantined then begin
      ignore (Veval.run vk ~mode ~args);
      0, false
    end
    else begin
      let body = slot_body t ~digest ~mode vk in
      let body =
        match t.guard.g_faults with
        | Some f when Faults.should_corrupt f ->
          Stats.incr t.st "faults.corrupted_bodies";
          Vfast.corrupt body
        | _ -> body
      in
      let check =
        force_check
        ||
        match t.guard.g_oracle with
        | None -> false
        | Some p ->
          (p.op_first_run && s.ks_interp_runs = 0)
          || (p.op_sample_every > 0
             && s.ks_interp_runs > 0
             && s.ks_interp_runs mod p.op_sample_every = 0)
      in
      if not check then begin
        ignore (Vfast.run body ~args);
        0, false
      end
      else begin
        (* Differential check against the reference interpreter — always
           Veval, never another compiled body. *)
        let ref_args = Eval.copy_args args in
        ignore (Vfast.run body ~args);
        Stats.incr t.st "oracle.checks";
        ignore (Veval.run vk ~mode ~args:ref_args);
        let check_cycles = interp_cycles vk ~args:ref_args in
        if args_equal args ref_args then check_cycles, false
        else begin
          Stats.incr t.st "oracle.mismatches";
          Hashtbl.remove t.slot_bodies (digest, mode_key mode);
          quarantine t s;
          restore_args ~into:args ~from:ref_args;
          check_cycles, true
        end
      end
    end
  in
  s.ks_interp_runs <- s.ks_interp_runs + 1;
  Stats.incr t.st "tier.interp_runs";
  Stats.observe t.st "tier.interp_cycles" (float_of_int cycles);
  cycles + extra, mismatched

(* Compile with bounded retry against injected transient faults; the
   backoff is modeled microseconds, accumulated into the charge for this
   invocation.  Never raises: hard failures come back as [Error]. *)
let compile_with_retry t ~(target : Target.t) ~(profile : Profile.t) vk :
    (Compile.t * float, Compile.lower_error * float) result =
  let rec go attempt backoff_charged =
    let injected =
      match t.guard.g_faults with
      | Some f -> Faults.injected_compile_fault f ~attempt
      | None -> None
    in
    match injected with
    | Some reason ->
      Stats.incr t.st "faults.injected_compile";
      if attempt < t.guard.g_retry_budget then begin
        Stats.incr t.st "guard.retries";
        go (attempt + 1)
          (backoff_charged +. Faults.backoff_us ~attempt:(attempt + 1))
      end
      else
        Error
          ({ Compile.le_stage = `Injected; le_reason = reason },
           backoff_charged)
    | None -> (
      match Compile.compile_checked ~target ~profile vk with
      | Ok c ->
        Code_cache.note_real_compile t.cache;
        if c.Compile.forced_scalar_regions <> [] then
          Stats.incr t.st "guard.scalarize_fallbacks";
        Ok (c, backoff_charged)
      | Error e -> Error (e, backoff_charged))
  in
  go 0 0.0

let store_key (key : Digest.key) =
  {
    Store.sk_digest = Digest.raw key.Digest.k_digest;
    sk_target = key.Digest.k_target;
    sk_profile = key.Digest.k_profile;
  }

(* Transient-IO resilience: run one store operation under the injected
   IO-fault schedule with bounded exponential-backoff retry.  Each faulted
   attempt draws from the injector's primary stream (so replay after a
   checkpoint restore re-draws identically), notes a retry on the session,
   and charges modeled backoff into the [store.io_backoff_us] histogram.
   Exhausted retries return [None]: the caller degrades — a probe falls
   through to a real compile, a publish is skipped — and no exception
   ever escapes the store tier. *)
let with_io_retry t ss (op : unit -> 'a) : 'a option =
  match t.guard.g_faults with
  | None -> Some (op ())
  | Some f ->
    let budget = max 0 t.guard.g_retry_budget in
    let rec go attempt =
      if Faults.store_io_failure f then begin
        Stats.incr t.st "faults.injected_store_io";
        if attempt < budget then begin
          Store.note_retry ss;
          Stats.observe t.st "store.io_backoff_us"
            (Faults.backoff_us ~attempt:(attempt + 1));
          go (attempt + 1)
        end
        else None
      end
      else Some (op ())
    in
    go 0

(* Second-tier fetch: probe the persistent store on an in-memory miss.
   The fault injector may mangle the bytes read from disk (the
   disk-corruption chaos mode); the store's checksum layer detects it
   and the probe comes back [Corrupt], which falls through to a real
   compile exactly like a miss.  [discard_hit] (recovery replay) still
   performs the probe — consuming exactly the draws the original
   admission consumed — but discards a [Hit] so the invocation recompiles
   the way the crashed shard originally did. *)
let store_fetch ?(discard_hit = false) t ~(target : Target.t) key :
    Compile.t option =
  match t.store with
  | None -> None
  | Some ss ->
    let tr = t.tracer in
    if Tracer.on tr then Tracer.span_begin tr ~name:"store_probe" [];
    let res =
      with_io_retry t ss (fun () ->
          let mangle =
            match t.guard.g_faults with
            | Some f when Faults.should_corrupt_store f ->
              Some (Faults.mangle_store_bytes f)
            | _ -> None
          in
          Store.probe ?mangle ss ~target (store_key key))
    in
    let outcome, compiled =
      match res with
      | Some (Store.Hit e) ->
        if discard_hit then "hit_discarded", None
        else "hit", Some e.Store.en_compiled
      | Some Store.Miss -> "miss", None
      | Some (Store.Corrupt _) -> "corrupt", None
      | None -> "io_error", None
    in
    if Tracer.on tr then
      Tracer.span_end tr
        ~attrs:[ "outcome", Tracer.S outcome ]
        ~name:"store_probe" ();
    compiled

let store_publish t key vk compiled =
  match t.store with
  | None -> ()
  | Some ss ->
    let tr = t.tracer in
    if Tracer.on tr then Tracer.span_begin tr ~name:"store_publish" [];
    (match with_io_retry t ss (fun () ->
         Store.publish ss (store_key key) vk compiled)
     with
    | Some () -> ()
    | None ->
      (* Retries exhausted: the body stays process-local.  A later probe
         misses and recompiles — correctness is untouched. *)
      Stats.incr t.st "store.publish_aborts");
    if Tracer.on tr then Tracer.span_end tr ~name:"store_publish" ()

(* Invocation-count and hotness-promotion bookkeeping, shared by
   {!invoke} and {!invoke_batch} so a batched element is accounted
   exactly like a single dispatch. *)
let note_invocation t (s : kstate) =
  s.ks_invocations <- s.ks_invocations + 1;
  if
    s.ks_tier = Interpreter
    && (not s.ks_quarantined)
    && s.ks_invocations > t.threshold
  then begin
    s.ks_tier <- Jit;
    s.ks_transitions <-
      { at_invocation = s.ks_invocations; to_tier = Jit } :: s.ks_transitions;
    Stats.incr t.st "tier.promotions"
  end

(* The interpreter-tier arm of an invocation: exec span + tiered
   interpreter run. *)
let interp_invoke t (s : kstate) ~digest ~(target : Target.t) ~force_check vk
    ~args =
  let tr = t.tracer in
  if Tracer.on tr then
    Tracer.span_begin tr ~name:"exec" [ "tier", Tracer.S "interp" ];
  let cycles, mismatched =
    interp_run ~force_check t s ~digest ~target vk ~args
  in
  if Tracer.on tr then
    Tracer.span_end tr ~attrs:[ "cycles", Tracer.I cycles ] ~name:"exec" ();
  { r_tier = Interpreter; r_cycles = cycles; r_compile_us = 0.0;
    r_cache = None;
    r_outcome = (if mismatched then Oracle_mismatch else Clean);
    r_real_compile = false }

(* The slow half of obtaining a JIT body once the in-memory cache has
   missed: probe the persistent store, else compile (with bounded retry
   against injected transient faults) and insert.  The [bool] in [Ok] is
   the real-compile hint for the admission journal. *)
let jit_fetch_slow ?(discard_store_hit = false) t ~(target : Target.t)
    ~(profile : Profile.t) ~key vk :
    ( Compile.t * Code_cache.outcome * float * bool,
      Compile.lower_error * float )
    result =
  let tr = t.tracer in
  match store_fetch ~discard_hit:discard_store_hit t ~target key with
  | Some compiled ->
    (* Warm start: account the store hit exactly like a compile —
       charge and observe the stored *modeled* compile time, count
       the scalarize fallback, insert — so the warm report is
       byte-identical to the cold one while no compile runs. *)
    if compiled.Compile.forced_scalar_regions <> [] then
      Stats.incr t.st "guard.scalarize_fallbacks";
    Stats.observe t.st "cache.compile_us" compiled.Compile.compile_time_us;
    Code_cache.insert t.cache key vk profile compiled;
    Ok (compiled, Code_cache.Miss, 0.0, false)
  | None -> (
    if Tracer.on tr then Tracer.span_begin tr ~name:"compile" [];
    match compile_with_retry t ~target ~profile vk with
    | Ok (compiled, backoff_us) ->
      Stats.observe t.st "cache.compile_us" compiled.Compile.compile_time_us;
      Code_cache.insert t.cache key vk profile compiled;
      if Tracer.on tr then
        Tracer.span_end tr
          ~attrs:
            [
              "result", Tracer.S "ok";
              "compile_us", Tracer.F compiled.Compile.compile_time_us;
            ]
          ~name:"compile" ();
      store_publish t key vk compiled;
      Ok (compiled, Code_cache.Miss, backoff_us, true)
    | Error (err, backoff_us) ->
      if Tracer.on tr then
        Tracer.span_end tr
          ~attrs:[ "result", Tracer.S "error" ]
          ~name:"compile" ();
      Error (err, backoff_us))

(* The JIT-tier arm of an invocation, given the fetched body. *)
let jit_run t (s : kstate) ~digest:d ~(target : Target.t) ~force_oracle vk
    ~args fetched =
  let tr = t.tracer in
  match fetched with
  | Error ((_err : Compile.lower_error), backoff_us) ->
    (* Unloweable (or retries exhausted): de-optimize.  Pin the kernel
       to the interpreter so the runtime stops re-attempting a compile
       that cannot succeed. *)
    Stats.incr t.st "guard.compile_errors";
    quarantine t s;
    let cycles, _ = interp_run t s ~digest:d ~target vk ~args in
    { r_tier = Interpreter; r_cycles = cycles;
      r_compile_us = backoff_us; r_cache = None;
      r_outcome = Compile_error; r_real_compile = false }
  | Ok (compiled, outcome, backoff_us, real_compile) -> (
      let charged =
        match outcome with
        | Code_cache.Miss ->
          s.ks_cold_compile_us <- compiled.Compile.compile_time_us;
          compiled.Compile.compile_time_us +. backoff_us
        | Code_cache.Hit ->
          if s.ks_cold_compile_us = 0.0 then
            (* compiled earlier (or by a sibling state); remember the cold
               cost for amortization tables without re-charging it *)
            s.ks_cold_compile_us <- compiled.Compile.compile_time_us;
          backoff_us
      in
      (* Fault injection: the cache may deliver a corrupted body. *)
      let compiled =
        match t.guard.g_faults with
        | Some f when Faults.should_corrupt f -> (
          match Faults.corrupt f compiled with
          | Some bad ->
            Stats.incr t.st "faults.corrupted_bodies";
            bad
          | None -> compiled)
        | _ -> compiled
      in
      (* Differential oracle schedule: first JIT run of this body, then
         every [op_sample_every]-th run. *)
      let check =
        force_oracle
        ||
        match t.guard.g_oracle with
        | None -> false
        | Some p ->
          (p.op_first_run && s.ks_jit_runs = 0)
          || (p.op_sample_every > 0
             && s.ks_jit_runs > 0
             && s.ks_jit_runs mod p.op_sample_every = 0)
      in
      let reference = if check then Some (Eval.copy_args args) else None in
      let exec_result =
        if Tracer.on tr then
          Tracer.span_begin tr ~name:"exec" [ "tier", Tracer.S "jit" ];
        let r =
          Exec.run_checked ~reference:(t.engine = Reference) target compiled
            ~args
        in
        (if Tracer.on tr then
           match r with
           | Ok ok ->
             Tracer.span_end tr
               ~attrs:[ "cycles", Tracer.I ok.Exec.cycles ]
               ~name:"exec" ()
           | Error ee ->
             Tracer.span_end tr
               ~attrs:[ "fault", Tracer.S (Exec.exec_error_to_string ee) ]
               ~name:"exec" ());
        r
      in
      match exec_result with
      | Error _ee ->
        (* The body faulted mid-simulation; caller buffers are untouched
           (read-back only happens on a clean finish), so the interpreter
           re-runs the invocation from the original inputs. *)
        Stats.incr t.st "guard.exec_faults";
        quarantine t s;
        let cycles, _ = interp_run t s ~digest:d ~target vk ~args in
        { r_tier = Interpreter; r_cycles = cycles; r_compile_us = charged;
          r_cache = Some outcome; r_outcome = Exec_fault;
          r_real_compile = real_compile }
      | Ok r -> (
        s.ks_jit_runs <- s.ks_jit_runs + 1;
        Stats.incr t.st "tier.jit_runs";
        Stats.observe t.st "tier.jit_cycles" (float_of_int r.Exec.cycles);
        match reference with
        | None ->
          { r_tier = Jit; r_cycles = r.Exec.cycles; r_compile_us = charged;
            r_cache = Some outcome; r_outcome = Clean;
            r_real_compile = real_compile }
        | Some ref_args ->
          (* Re-execute through the interpreter and compare output
             buffers bit-for-bit; the check's cost is charged to this
             invocation.  A body fully de-optimized to scalar code is
             checked against scalar semantics (vector-mode interpretation
             would reassociate FP reductions). *)
          Stats.incr t.st "oracle.checks";
          let mode =
            if
              compiled.Compile.forced_scalar_regions <> []
              && List.for_all
                   (function
                     | Vapor_jit.Lower.Scalarize _ -> true
                     | Vapor_jit.Lower.Vectorize -> false)
                   compiled.Compile.decisions
            then Veval.Scalarized
            else veval_mode target
          in
          if Tracer.on tr then Tracer.span_begin tr ~name:"oracle" [];
          ignore (Veval.run vk ~mode ~args:ref_args);
          let check_cycles = interp_cycles vk ~args:ref_args in
          let matched = args_equal args ref_args in
          if Tracer.on tr then
            Tracer.span_end tr
              ~attrs:[ "match", Tracer.Bool matched ]
              ~name:"oracle" ();
          if matched then
            { r_tier = Jit; r_cycles = r.Exec.cycles + check_cycles;
              r_compile_us = charged; r_cache = Some outcome;
              r_outcome = Clean; r_real_compile = real_compile }
          else begin
            (* Wrong answer: quarantine the body and hand the caller the
               interpreter's buffers — no wrong output escapes. *)
            Stats.incr t.st "oracle.mismatches";
            quarantine t s;
            restore_args ~into:args ~from:ref_args;
            { r_tier = Interpreter;
              r_cycles = r.Exec.cycles + check_cycles;
              r_compile_us = charged; r_cache = Some outcome;
              r_outcome = Oracle_mismatch; r_real_compile = real_compile }
          end))

let resolve ?digest ?label t ~(target : Target.t) ~(profile : Profile.t)
    (vk : B.vkernel) =
  let d = match digest with Some d -> d | None -> Digest.of_vkernel vk in
  let key =
    {
      Digest.k_digest = d;
      k_target = target.Target.name;
      k_profile = profile.Profile.name;
    }
  in
  let label = match label with Some l -> l | None -> vk.B.name in
  d, key, state_of t key label

let invoke ?digest ?label ?(interp_only = false) ?(force_oracle = false)
    ?(discard_store_hit = false) t ~(target : Target.t)
    ~(profile : Profile.t) (vk : B.vkernel) ~args =
  (* Pin late-bound targets to a concrete vector length before keying any
     cache: "sve" and its resolved spelling must not alias distinct
     entries. *)
  let target = Target.resolve target in
  let d, key, s = resolve ?digest ?label t ~target ~profile vk in
  note_invocation t s;
  let tr = t.tracer in
  (* [interp_only] forces the interpreter path for this invocation without
     demoting the kernel (breaker-open serving); promotion bookkeeping
     above still ran, so hotness accrues normally and the kernel resumes
     JIT serving the moment the caller stops forcing. *)
  match (if interp_only then Interpreter else s.ks_tier) with
  | Interpreter ->
    interp_invoke t s ~digest:d ~target ~force_check:force_oracle vk ~args
  | Jit ->
    (* Obtain the body: cache lookup, else store probe / compile (with
       bounded retry against injected transient faults) and insert.
       Stats mirror [Code_cache.find_or_compile] exactly on the clean
       path. *)
    let fetched =
      if Tracer.on tr then Tracer.span_begin tr ~name:"cache_lookup" [];
      match Code_cache.find t.cache key with
      | Some compiled ->
        if Tracer.on tr then
          Tracer.span_end tr
            ~attrs:[ "outcome", Tracer.S "hit" ]
            ~name:"cache_lookup" ();
        Ok (compiled, Code_cache.Hit, 0.0, false)
      | None ->
        if Tracer.on tr then
          Tracer.span_end tr
            ~attrs:[ "outcome", Tracer.S "miss" ]
            ~name:"cache_lookup" ();
        jit_fetch_slow ~discard_store_hit t ~target ~profile ~key vk
    in
    jit_run t s ~digest:d ~target ~force_oracle vk ~args fetched

(* {2 Batched invocation}

   A batch memoizes, per (tier, caller signature), the modeled cycle
   charge of an execution whose operands are bit-identical to one that
   already ran in the same batch.  The serving layer's workload builders
   construct arguments deterministically from (kernel, scale) with no
   per-event input, so co-batched elements sharing a signature execute
   the same pure function over the same operands — the runtime runs the
   body once and replays the charge for the duplicates, skipping both
   the argument build and the execution.

   Elision is confined to the unguarded fast path (no fault injector, no
   differential oracle, no forced probe check, fast engine, kernel not
   quarantined): everything else falls back to the plain {!invoke}, so
   guard schedules, fault draws and quarantine transitions are
   indistinguishable from single dispatch.  Every per-element effect of
   the elided run is still applied — invocation counts, hotness
   promotion, cache-lookup accounting (LRU touch + hit counter), tier
   run counters, cycle histograms, slot-body hits, tracer spans — so
   reports and gauges cannot tell an elided element from an executed
   one. *)

type batch = {
  bt_interp : (string, int) Hashtbl.t;  (* signature -> modeled cycles *)
  bt_jit : (string, int) Hashtbl.t;
}

let batch_create () =
  { bt_interp = Hashtbl.create 8; bt_jit = Hashtbl.create 8 }

let batch_reset b =
  Hashtbl.reset b.bt_interp;
  Hashtbl.reset b.bt_jit

let invoke_batch ?digest ?label ?(interp_only = false) ?(force_oracle = false)
    ~batch ~memo_key t ~(target : Target.t) ~(profile : Profile.t)
    (vk : B.vkernel) ~(args : unit -> (string * Eval.arg) list) =
  let target = Target.resolve target in
  let d, key, s = resolve ?digest ?label t ~target ~profile vk in
  let elidable =
    t.engine = Fast
    && t.guard.g_oracle = None
    && t.guard.g_faults = None
    && (not force_oracle)
    && not s.ks_quarantined
  in
  if not elidable then
    invoke ~digest:d ?label ~interp_only ~force_oracle t ~target ~profile vk
      ~args:(args ())
  else begin
    note_invocation t s;
    let tr = t.tracer in
    match (if interp_only then Interpreter else s.ks_tier) with
    | Interpreter -> (
      match Hashtbl.find_opt batch.bt_interp memo_key with
      | Some cycles ->
        (* Elided: a co-batched element with bit-identical operands
           already ran this slot body.  Account as if executed. *)
        if Tracer.on tr then
          Tracer.span_begin tr ~name:"exec" [ "tier", Tracer.S "interp" ];
        t.slot_hits <- t.slot_hits + 1;
        s.ks_interp_runs <- s.ks_interp_runs + 1;
        Stats.incr t.st "tier.interp_runs";
        Stats.observe t.st "tier.interp_cycles" (float_of_int cycles);
        if Tracer.on tr then
          Tracer.span_end tr
            ~attrs:[ "cycles", Tracer.I cycles ]
            ~name:"exec" ();
        { r_tier = Interpreter; r_cycles = cycles; r_compile_us = 0.0;
          r_cache = None; r_outcome = Clean; r_real_compile = false }
      | None ->
        let r =
          interp_invoke t s ~digest:d ~target ~force_check:false vk
            ~args:(args ())
        in
        if r.r_outcome = Clean then
          Hashtbl.replace batch.bt_interp memo_key r.r_cycles;
        r)
    | Jit -> (
      if Tracer.on tr then Tracer.span_begin tr ~name:"cache_lookup" [];
      let found = Code_cache.find t.cache key in
      match found, Hashtbl.find_opt batch.bt_jit memo_key with
      | Some compiled, Some cycles ->
        (* Elided: the leader compiled (or hit) this body and executed
           these exact operands; replay its charge as a cache hit. *)
        if Tracer.on tr then
          Tracer.span_end tr
            ~attrs:[ "outcome", Tracer.S "hit" ]
            ~name:"cache_lookup" ();
        if s.ks_cold_compile_us = 0.0 then
          s.ks_cold_compile_us <- compiled.Compile.compile_time_us;
        s.ks_jit_runs <- s.ks_jit_runs + 1;
        Stats.incr t.st "tier.jit_runs";
        Stats.observe t.st "tier.jit_cycles" (float_of_int cycles);
        if Tracer.on tr then begin
          Tracer.span_begin tr ~name:"exec" [ "tier", Tracer.S "jit" ];
          Tracer.span_end tr
            ~attrs:[ "cycles", Tracer.I cycles ]
            ~name:"exec" ()
        end;
        { r_tier = Jit; r_cycles = cycles; r_compile_us = 0.0;
          r_cache = Some Code_cache.Hit; r_outcome = Clean;
          r_real_compile = false }
      | found, _ ->
        let fetched =
          match found with
          | Some compiled ->
            if Tracer.on tr then
              Tracer.span_end tr
                ~attrs:[ "outcome", Tracer.S "hit" ]
                ~name:"cache_lookup" ();
            Ok (compiled, Code_cache.Hit, 0.0, false)
          | None ->
            if Tracer.on tr then
              Tracer.span_end tr
                ~attrs:[ "outcome", Tracer.S "miss" ]
                ~name:"cache_lookup" ();
            jit_fetch_slow t ~target ~profile ~key vk
        in
        let r =
          jit_run t s ~digest:d ~target ~force_oracle:false vk
            ~args:(args ()) fetched
        in
        if r.r_outcome = Clean && r.r_tier = Jit then
          Hashtbl.replace batch.bt_jit memo_key r.r_cycles;
        r)
  end

let migrate_target t ~(from_target : Target.t) ~(to_target : Target.t) =
  let stale =
    Hashtbl.fold
      (fun _ s acc ->
        if String.equal s.ks_key.Digest.k_target from_target.Target.name then
          s :: acc
        else acc)
      t.states []
  in
  List.fold_left
    (fun n s ->
      Hashtbl.remove t.states s.ks_key;
      let key = { s.ks_key with Digest.k_target = to_target.Target.name } in
      if Hashtbl.mem t.states key then n
      else begin
        let s' = { s with ks_key = key; ks_cold_compile_us = 0.0 } in
        (* hotness carries over: a promoted body stays promoted *)
        Hashtbl.replace t.states key s';
        Stats.incr t.st "tier.migrations";
        n + 1
      end)
    0 stale

let states t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.states []
  |> List.sort (fun a b ->
         compare
           (a.ks_label, a.ks_key.Digest.k_target)
           (b.ks_label, b.ks_key.Digest.k_target))

let hotness_threshold t = t.threshold
let cache t = t.cache
let store t = t.store
let stats t = t.st
let engine t = t.engine
let tracer t = t.tracer
let set_tracer t tr = t.tracer <- tr
let slot_compiles t = t.slot_compiles
let slot_hits t = t.slot_hits

(* --- checkpoint snapshot ------------------------------------------------
   The runtime state a shard checkpoint must capture beyond the code
   cache: per-kernel tier states (hotness, promotion history, quarantine
   flags), the slot-compiled interpreter bodies, and the engine-private
   counters.  Compiled bodies are immutable and shared; kstate records
   are copied because every field but the key mutates. *)

type snap = {
  sn_states : (Digest.key * kstate) list;
  sn_slot_bodies : (Digest.t * int, Vfast.compiled) Hashtbl.t;
  sn_slot_compiles : int;
  sn_slot_hits : int;
}

let snapshot t =
  {
    sn_states =
      Hashtbl.fold
        (fun k s acc -> (k, { s with ks_invocations = s.ks_invocations }) :: acc)
        t.states [];
    sn_slot_bodies = Hashtbl.copy t.slot_bodies;
    sn_slot_compiles = t.slot_compiles;
    sn_slot_hits = t.slot_hits;
  }

let restore t sn =
  Hashtbl.reset t.states;
  List.iter
    (fun (k, s) ->
      Hashtbl.replace t.states k { s with ks_invocations = s.ks_invocations })
    sn.sn_states;
  Hashtbl.reset t.slot_bodies;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.slot_bodies k v) sn.sn_slot_bodies;
  t.slot_compiles <- sn.sn_slot_compiles;
  t.slot_hits <- sn.sn_slot_hits

(* Deterministic digest-level rows for the on-disk checkpoint artifact:
   (label, target, tier, invocations, quarantined), sorted. *)
let snap_rows sn =
  List.map
    (fun ((k : Digest.key), (s : kstate)) ->
      ( s.ks_label,
        k.Digest.k_target,
        tier_to_string s.ks_tier,
        s.ks_invocations,
        s.ks_quarantined ))
    sn.sn_states
  |> List.sort compare
