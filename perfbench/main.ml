(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Checks the workload's outputs in a child process, times set-up in
   fresh child processes, then measures passes over the workload for S
   seconds.  With --trace 0 it reports the end-to-end metrics; with
   --trace 1 it makes the separate traced run and reports the per-layer
   metrics.  Human-readable lines come first; the last line of standard
   output is one JSON object.  Any failed check exits 1 without a result.
   Scratch files (serve-flood's journal) live under .perfbench-tmp/ in
   the working directory and are removed on exit. *)

module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Serve = Vapor_serve.Serve
module Stage = Vapor_obs.Stage
module Tracer = Vapor_obs.Tracer
module Suite = Vapor_kernels.Suite
module Flows = Vapor_harness.Flows
module Driver = Vapor_vectorizer.Driver
module Encode = Vapor_vecir.Encode
module W = Workloads

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit code)
    fmt

(* Run [f], logging its wall time to stderr. *)
let timed what f =
  let t0 = Spans.now () in
  let v = f () in
  Printf.eprintf "perfbench: %s took %.2f s\n%!" what
    (float_of_int (Spans.now () - t0) /. 1e9);
  v

(* --- scratch directory ---------------------------------------------------- *)

let scratch_root = ".perfbench-tmp"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc n -> acc + dir_bytes (Filename.concat path n))
      0 (Sys.readdir path)
  | _ -> (Unix.lstat path).Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let scratch_dir =
  lazy
    (let d = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     rm_rf d;
     Unix.mkdir d 0o755;
     at_exit (fun () ->
         rm_rf d;
         try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
     d)

let journal_counter = ref 0

(* A fresh, empty journal directory (created here: it is part of set-up). *)
let fresh_journal_dir () =
  incr journal_counter;
  let d =
    Filename.concat (Lazy.force scratch_dir)
      (Printf.sprintf "journal-%d" !journal_counter)
  in
  Unix.mkdir d 0o755;
  d

(* --- statistics ----------------------------------------------------------- *)

(* Linear-interpolated quantile of unsorted samples, q in [0, 1]. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- arguments ------------------------------------------------------------ *)

type args = {
  workload : W.kind;
  seed : int;
  seconds : float;
  trace : bool;
  phase : string;  (* "run", or a child's "check" / "setup" / "heap" *)
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 in
  let trace = ref 0 and phase = ref "run" in
  let spec =
    [
      "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N workload seed";
      "--seconds", Arg.Set_float seconds, "S measurement time";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run";
      "--phase", Arg.Set_string phase, "run|check|setup|heap (internal)";
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload W.all with
    | Some k -> k
    | None ->
      die 2 "unknown workload %S (one of: %s)" !workload
        (String.concat ", " (List.map fst W.all))
  in
  if !seed < 0 then die 2 "--seed must be a non-negative integer";
  if !seconds <= 0.0 then die 2 "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die 2 "--trace must be 0 or 1";
  if not (List.mem !phase [ "run"; "check"; "setup"; "heap" ]) then
    die 2 "unknown --phase %S" !phase;
  { workload = kind; seed = !seed; seconds = !seconds; trace = !trace = 1;
    phase = !phase }

let child_args a phase =
  [|
    Sys.executable_name; "--workload"; W.name a.workload; "--seed";
    string_of_int a.seed; "--phase"; phase;
  |]

(* --- child phases ---------------------------------------------------------- *)

(* Everything up to the first event being ready: trace and workload
   generation, kernel parse and vectorize (inside [pool_create]), and the
   journal directory.  Three calibration chunks come first, on the CPU
   and at the moment the set-up runs; their best and total times are
   printed for the parent. *)
let setup_phase a =
  let chunks = Array.init 3 (fun _ -> Calib.timed_chunk ()) in
  let w = W.make a.workload ~seed:a.seed in
  let kernels = w.W.trace.Trace.tr_kernels in
  (match w.W.kind with
  | W.Replay_hot | W.Jit_churn -> ignore (Service.pool_create w.W.cfg ~kernels)
  | W.Serve_flood ->
    let wl = W.serve_workload w.W.trace in
    ignore (fresh_journal_dir ());
    ignore
      (Service.pool_create w.W.cfg ~kernels:wl.Vapor_serve.Workload.wl_kernels));
  Printf.printf "calib %.17g %.17g\n"
    (Array.fold_left Float.min infinity chunks)
    (Array.fold_left ( +. ) 0.0 chunks)

(* One pass in a fresh process, then its peak major heap in MB: the
   figure covers set-up and one pass and nothing of the benchmark's own
   repeated measurement. *)
let heap_phase a =
  let w = W.make a.workload ~seed:a.seed in
  let journal_dir =
    if w.W.kind = W.Serve_flood then Some (fresh_journal_dir ()) else None
  in
  ignore
    (W.pass ?journal_dir ~serve_wl:(W.serve_workload w.W.trace) (Spans.create ()) w);
  Printf.printf "top_heap_mb %.17g\n"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6)

let check_phase a =
  let w = W.make a.workload ~seed:a.seed in
  match Checks.run w ~journal_dir:fresh_journal_dir with
  | r ->
    Printf.printf "checked %d bodies, %.17g %s\n" r.Checks.bodies_checked
      r.Checks.code_bytes_per_body r.Checks.text_digest
  | exception Checks.Mismatch m -> die 1 "output check failed: %s" m

(* Run the output checks in a child; returns (code bytes per body, report
   digest). *)
let run_checks a =
  let ic = Unix.open_process_args_in Sys.executable_name (child_args a "check") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match String.split_on_char ' ' (String.trim out) with
    | [ "checked"; n; "bodies,"; bytes; digest ] ->
      Printf.printf "output checks passed: %s bodies vs scalar Eval, reports \
                     byte-identical\n%!" n;
      float_of_string bytes, digest
    | _ -> die 1 "output check printed %S" out)
  | _ -> die 1 "output checks failed; no metrics written"

(* Peak major heap of a fresh process making one pass, MB. *)
let child_top_heap_mb a =
  let ic = Unix.open_process_args_in Sys.executable_name (child_args a "heap") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic, String.split_on_char ' ' (String.trim out) with
  | Unix.WEXITED 0, [ "top_heap_mb"; mb ] -> float_of_string mb
  | _ -> die 1 "heap child failed"

(* Median wall time of [n] fresh processes doing set-up only, each
   without its calibration chunks and scaled to the reference speed by
   the best of them. *)
let time_setup a ~n =
  let one () =
    let t0 = Spans.now () in
    let ic =
      Unix.open_process_args_in Sys.executable_name (child_args a "setup")
    in
    let out = In_channel.input_all ic in
    let status = Unix.close_process_in ic in
    let wall = float_of_int (Spans.now () - t0) in
    match status, String.split_on_char ' ' (String.trim out) with
    | Unix.WEXITED 0, [ "calib"; best; total ] ->
      (wall -. float_of_string total) /. 1e9
      *. (Calib.reference_ns /. float_of_string best)
    | _ -> die 1 "set-up child failed"
  in
  median (Array.init n (fun _ -> one ()))

(* --- measured passes -------------------------------------------------------- *)

(* Passes of one kind, accumulated.  Every pass makes the same calls in
   the same order, so the calls line up across passes: [best] keeps each
   call's shortest duration over the passes.  The host runs code up to
   1.7x slower in spells lasting from a fraction of a second to minutes.
   A per-call best over many passes takes each call from the fastest
   moment the run saw, and the calibration chunks' best times, taken the
   same way, say how fast that was; a pass-level median moves instead
   with the share of the run that fell in spells. *)
type measured = {
  mutable passes : int;
  mutable events : int;  (** over all passes *)
  mutable wall_ns : float;  (** sum of pass walls *)
  mutable pass_ns : float list;  (** wall of each pass, newest first *)
  mutable names : string array;  (** the calls of a pass, in order *)
  mutable best : float array;  (** per call, shortest duration, ns *)
  mutable last : W.outcome option;
  failed : (string, int) Hashtbl.t;
  mutable journal_bytes : int;  (** serve-flood: journal + checkpoints *)
  mutable scaled_ns : float list;
      (** wall of each pass at the reference speed, by the median of the
          chunks made just before it *)
}

let measured () =
  {
    passes = 0; events = 0; wall_ns = 0.0; pass_ns = []; names = [||];
    best = [||]; last = None; failed = Hashtbl.create 8; journal_bytes = 0;
    scaled_ns = [];
  }

(* Calibration chunks (see [Calib]): [calib_before] before every pass,
   and inside a pass where the benchmark steps the events itself, one
   before every [calib_every]-th event.  They are recorded as calls named
   "calib" and left out of every pass time. *)
let calib_before = 32
let calib_every = 50

(* One pass after a full GC (outside the timed region), recorded into
   [m]; its report must equal the checked one. *)
let run_pass ?tracer ~digest ~serve_wl spans m w =
  Gc.full_major ();
  let journal_dir =
    if w.W.kind = W.Serve_flood then Some (fresh_journal_dir ()) else None
  in
  Spans.clear spans;
  let calib () = Spans.span spans "calib" Calib.chunk in
  for _ = 1 to calib_before do
    calib ()
  done;
  let between i = if i mod calib_every = 0 then calib () in
  let t0 = Spans.now () in
  let o = W.pass ?tracer ~between ?journal_dir ~serve_wl spans w in
  let t1 = Spans.now () in
  if Digest.to_hex (Digest.string o.W.o_text) <> digest then
    die 1 "a measured pass's report differs from the checked report";
  let calls = Spans.calls spans in
  let names = Array.map fst calls and durs = Array.map snd calls in
  let inner_calib = ref 0.0 in
  Array.iteri
    (fun i (n, d) ->
      if i >= calib_before && String.equal n "calib" then
        inner_calib := !inner_calib +. d)
    calls;
  let d = float_of_int (t1 - t0) -. !inner_calib in
  m.scaled_ns <-
    d *. Calib.reference_ns /. median (Array.sub durs 0 calib_before)
    :: m.scaled_ns;
  if m.passes = 0 then begin
    m.names <- names;
    m.best <- durs
  end
  else if names <> m.names then die 1 "a pass made different calls"
  else m.best <- Array.map2 Float.min m.best durs;
  m.passes <- m.passes + 1;
  m.events <- m.events + o.W.o_attempted;
  m.wall_ns <- m.wall_ns +. d;
  m.pass_ns <- d :: m.pass_ns;
  List.iter
    (fun (cause, n) ->
      Hashtbl.replace m.failed cause
        (n + Option.value ~default:0 (Hashtbl.find_opt m.failed cause)))
    o.W.o_failed;
  Option.iter
    (fun d ->
      m.journal_bytes <- dir_bytes d;
      rm_rf d)
    journal_dir;
  m.last <- Some o

let last m = Option.get m.last
let failed_total m = Hashtbl.fold (fun _ n acc -> acc + n) m.failed 0

(* One pass, to be made by a kind of pass. *)
type pass = ?tracer:Tracer.t -> unit -> unit

(* Run rounds of passes until [seconds] of pass wall time have
   accumulated; each round makes one pass of every kind, so the kinds
   see the same host. *)
let measure ~seconds ~digest ~serve_wl w (kinds : (pass -> unit) list) =
  let spans = Spans.create () in
  let ms = List.map (fun _ -> measured ()) kinds in
  let wall () = List.fold_left (fun acc m -> acc +. m.wall_ns) 0.0 ms in
  while wall () < seconds *. 1e9 || (List.hd ms).passes = 0 do
    List.iter2
      (fun kind m ->
        kind (fun ?tracer () -> run_pass ?tracer ~digest ~serve_wl spans m w))
      kinds ms
  done;
  ms

let untraced (pass : pass) = pass ()

let sum_best m keep =
  let t = ref 0.0 in
  Array.iteri (fun i n -> if keep n then t := !t +. m.best.(i)) m.names;
  !t

(* How much faster than the reference host this one ran: the reference
   time of the calibration chunks over their best times, summed. *)
let host_speed m =
  let chunks =
    Array.fold_left
      (fun c n -> if String.equal n "calib" then c + 1 else c)
      0 m.names
  in
  Calib.reference_ns *. float_of_int chunks /. sum_best m (String.equal "calib")

let events_per_pass m = m.events / m.passes

(* One pass at the reference speed, ns.  Where the benchmark steps the
   events itself: the best pass, each call's shortest duration summed,
   scaled by [host_speed] -- calls and chunks of about the same length,
   both taken at the fastest moments of the run.  Where the driver takes
   the whole pass in one call, a pass of a second rarely falls entirely
   in such a moment, so each pass is scaled by the chunks made just
   before it instead, and the median is taken. *)
let pass_at_reference_ns w m =
  match w.W.kind with
  | W.Replay_hot | W.Jit_churn ->
    sum_best m (fun n -> not (String.equal n "calib")) *. host_speed m
  | W.Serve_flood -> median (Array.of_list m.scaled_ns)

let events_per_s w m =
  float_of_int (events_per_pass m) /. (pass_at_reference_ns w m /. 1e9)

(* Median and p99 over the trace's events of each event's best wall
   time at the reference speed, us: the [shard_step] calls where the
   benchmark steps the events itself; where the driver takes the whole
   pass in one call, the pass's wall time per event for both. *)
let event_latency_us w m =
  match w.W.kind with
  | W.Replay_hot | W.Jit_churn ->
    let steps = ref [] in
    Array.iteri
      (fun i n ->
        if String.equal n "shard_step" then
          steps := m.best.(i) *. host_speed m /. 1e3 :: !steps)
      m.names;
    let a = Array.of_list !steps in
    quantile a 0.5, quantile a 0.99
  | W.Serve_flood ->
    let us =
      pass_at_reference_ns w m /. 1e3 /. float_of_int (events_per_pass m)
    in
    us, us

(* --- metric output ----------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-36s %16.6g %s\n" m.name m.value m.unit_)
    metrics;
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then die 1 "metric %s is not finite" m.name)
    metrics;
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " body)

let print_accounting m =
  let failed = failed_total m in
  Printf.printf "  attempted %d  succeeded %d  failed %d%s\n" m.events
    (m.events - failed) failed
    (String.concat ""
       (Hashtbl.fold (fun c n acc -> Printf.sprintf "  %s=%d" c n :: acc) m.failed []));
  Printf.printf "  failed_ratio %.6g\n" (ratio (float_of_int failed) (float_of_int m.events));
  failed

(* --- end-to-end run ------------------------------------------------------------ *)

let warm_up ~serve_wl w =
  (* A fresh process runs its first passes markedly slower; discard at
     least two passes and 1.5 seconds. *)
  let spans = Spans.create () in
  let t0 = Spans.now () in
  let n = ref 0 in
  while !n < 2 || Spans.now () - t0 < 1_500_000_000 do
    let journal_dir =
      if w.W.kind = W.Serve_flood then Some (fresh_journal_dir ()) else None
    in
    ignore (W.pass ?journal_dir ~serve_wl spans w);
    Option.iter rm_rf journal_dir;
    Spans.clear spans;
    incr n
  done

let modeled_mcycles (o : W.outcome) =
  float_of_int o.W.o_report.Service.rp_total_cycles /. 1e6

let end_to_end a =
  let code_bytes, digest = timed "output checks" (fun () -> run_checks a) in
  let setup_s = timed "set-up timing" (fun () -> time_setup a ~n:41) in
  let w = W.make a.workload ~seed:a.seed in
  let serve_wl = W.serve_workload w.W.trace in
  timed "warm-up" (fun () -> warm_up ~serve_wl w);
  let m =
    timed "measurement" (fun () ->
        List.hd (measure ~seconds:a.seconds ~digest ~serve_wl w [ untraced ]))
  in
  let top_heap_mb = timed "heap child" (fun () -> child_top_heap_mb a) in
  let p50_us, p99_us = event_latency_us w m in
  let capacity = timed "capacity ladder" (fun () -> W.serve_capacity ~seed:a.seed) in
  Printf.eprintf "perfbench: pass walls (s):%s\n%!"
    (String.concat ""
       (List.rev_map (fun ns -> Printf.sprintf " %.3f" (ns /. 1e9)) m.pass_ns));
  Printf.printf
    "%s seed %d: %d passes of %d events, %.2f s measured; host speed %.3f of \
     the reference, one pass %.3f s at the reference speed\n"
    (W.name w.W.kind) a.seed m.passes (W.events w) (m.wall_ns /. 1e9)
    (host_speed m) (pass_at_reference_ns w m /. 1e9);
  let failed = print_accounting m in
  print_result ~attempted:m.events ~failed
    [
      metric "events_per_s" "1/s" (events_per_s w m);
      metric "event_p50_us" "us" p50_us;
      metric "event_p99_us" "us" p99_us;
      metric "setup_s" "s" setup_s;
      metric "modeled_mcycles" "Mcycles" (modeled_mcycles (last m));
      metric "code_bytes_per_body" "bytes" code_bytes;
      metric "succeeded_ratio" "ratio"
        (1.0 -. ratio (float_of_int failed) (float_of_int m.events));
      metric "deadline_slack_p99_kcycles" "kcycles"
        (W.deadline_slack_kcycles w ~seed:a.seed (last m));
      metric "serve_capacity_ev_per_mcycle" "1/Mcycle" capacity;
      metric "top_heap_mb" "MB" top_heap_mb;
    ]

(* --- per-layer (traced) run ----------------------------------------------------- *)

let jit_stages = [ "lower"; "emit"; "regalloc"; "prepare" ]

(* Harness-timed [Driver.vectorize] of the workload's kernels, ms; median
   of five repetitions.  Parsing is cached by the suite and not included. *)
let vectorize_ms w =
  let kernels = List.map Suite.find w.W.trace.Trace.tr_kernels in
  let parsed = List.map Suite.kernel kernels in
  median
    (Array.init 5 (fun _ ->
         let t0 = Spans.now () in
         List.iter (fun k -> ignore (Driver.vectorize k)) parsed;
         float_of_int (Spans.now () - t0) /. 1e6))

let bytecode_bytes w =
  List.fold_left
    (fun acc k ->
      acc + Encode.size (Flows.vectorized_bytecode (Suite.find k)).Driver.vkernel)
    0 w.W.trace.Trace.tr_kernels

(* Modeled cycles per serving target, in millions.  Where the benchmark
   steps the events itself each record's cycles go to the event's
   target; the other workloads serve on one target only. *)
let mcycles_by_target w (o : W.outcome) =
  let tbl = Hashtbl.create 8 in
  let add name c =
    Hashtbl.replace tbl name
      (c + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  (match o.W.o_records with
  | [] -> (
    match w.W.cfg.Service.cfg_targets with
    | [ t ] -> add t.Vapor_targets.Target.name o.W.o_report.Service.rp_total_cycles
    | _ -> die 1 "per-target cycles need per-event records")
  | records ->
    List.iter2
      (fun (r : Service.event_record) (t : Vapor_targets.Target.t) ->
        add (Vapor_targets.Target.resolve t).Vapor_targets.Target.name
          r.Service.er_cycles)
      records (W.event_targets w));
  List.map
    (fun name ->
      metric ("machine.mcycles." ^ name) "Mcycles"
        (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl name)) /. 1e6))
    W.target_names

(* Self-time shares of the traced run, printed as a table.  The caller's
   wall time not covered by the tracer's root spans is the driver call's
   own work: argument building and trigger checks in
   [Service.shard_step], the serving engine outside its spans in
   [Serve.run]. *)
let layer_table w ~caller_self ~pass_ns (tracer_fold : Spans.fold) =
  Printf.printf "  %-28s %7.2f%%\n"
    ("(" ^ W.driver_span w ^ " outside spans)")
    (100.0 *. ratio caller_self pass_ns);
  List.iter
    (fun n ->
      Printf.printf "  %-28s %7.2f%%  %7d spans, %d under 5 us (quantized)\n" n
        (100.0 *. ratio (Spans.self_ns tracer_fold n) pass_ns)
        (Spans.count tracer_fold n)
        (Spans.quantized tracer_fold n))
    (Spans.names tracer_fold)

let per_layer a =
  let _code_bytes, digest = timed "output checks" (fun () -> run_checks a) in
  let w = W.make a.workload ~seed:a.seed in
  let serve_wl = W.serve_workload w.W.trace in
  let vec_ms = vectorize_ms w in
  timed "warm-up" (fun () -> warm_up ~serve_wl w);
  (* Three kinds of pass, interleaved round by round: untraced, the base
     of the tracing overhead; under a Stage aggregating sink installed
     around the benchmark's calls (with no tracer the runtime leaves it
     in place for every event); and with the program's wall-mode tracer,
     folded after each pass. *)
  let agg = Stage.agg_create () in
  let staged (pass : pass) =
    Stage.with_sink (Some (Stage.agg_sink agg)) (fun () -> pass ())
  in
  let tracer_fold = Spans.fold_create () and roots_ns = ref 0.0 in
  let traced (pass : pass) =
    let tr = Tracer.create ~wall:true () in
    pass ~tracer:tr ();
    roots_ns := !roots_ns +. Spans.fold_jsonl tracer_fold (Tracer.to_jsonl tr)
  in
  let untraced, staged, traced =
    match
      timed "measurement" (fun () ->
          measure ~seconds:a.seconds ~digest ~serve_wl w
            [ untraced; staged; traced ])
    with
    | [ u; s; t ] -> u, s, t
    | _ -> assert false
  in
  (* Layer accounting.  The tracer's root spans lie inside the traced
     passes, and every event of a pass has its own root span; anything
     else means the spans cannot be trusted. *)
  let pass_ns = traced.wall_ns in
  if !roots_ns > 1.01 *. pass_ns then
    die 1 "layer accounting: tracer root spans (%.3f s) exceed the traced \
           passes' wall time (%.3f s)" (!roots_ns /. 1e9) (pass_ns /. 1e9);
  if Spans.count tracer_fold "replay_event" <> traced.events then
    die 1 "layer accounting: %d replay_event spans for %d events"
      (Spans.count tracer_fold "replay_event") traced.events;
  let caller_self = pass_ns -. !roots_ns in
  (* Unattributed: the traced wall time outside every named layer -- the
     driver's own work outside spans and the runtime's self time in
     replay_event and exec. *)
  let unattributed =
    caller_self +. Spans.self_ns tracer_fold "replay_event"
    +. Spans.self_ns tracer_fold "exec"
  in
  Printf.printf "%s seed %d traced run: self time, %% of %.3f s traced\n"
    (W.name w.W.kind) a.seed (pass_ns /. 1e9);
  layer_table w ~caller_self ~pass_ns tracer_fold;
  Printf.printf "  unattributed (caller + replay_event + exec self) %.2f%%\n"
    (100.0 *. ratio unattributed pass_ns);
  (* Stage figures come from the aggregating sink. *)
  let mean_us n =
    let c = Stage.agg_count agg n in
    if c = 0 then 0.0 else Stage.agg_ns agg n /. 1e3 /. float_of_int c
  in
  let share n = ratio (Stage.agg_ns agg n) staged.wall_ns in
  let jit_share = List.fold_left (fun acc n -> acc +. share n) 0.0 jit_stages in
  let largest =
    List.fold_left
      (fun (bn, bv) n ->
        let v = Spans.self_ns tracer_fold n in
        if v > bv then n, v else bn, bv)
      ("(caller)", caller_self) (Spans.names tracer_fold)
    |> fst
  in
  Printf.printf
    "  Stage shares of the staged passes: jit stages %.2f%%, simulate %.2f%%, \
     layout %.2f%%; largest self-time layer: %s\n"
    (100.0 *. jit_share) (100.0 *. share "simulate") (100.0 *. share "layout")
    largest;
  (* What each workload is claimed to stress, checked and reported (not
     enforced: a faster simulator may legitimately change the ranking). *)
  let claim what holds =
    Printf.printf "  claim: %s: %s\n" what (if holds then "holds" else "does NOT hold")
  in
  (match w.W.kind with
  | W.Replay_hot ->
    claim "JIT stages under 2% of wall time" (jit_share < 0.02);
    claim "simulate is the largest layer" (largest = "simulate")
  | W.Jit_churn -> claim "JIT stages over a third of wall time" (jit_share > 1.0 /. 3.0)
  | W.Serve_flood -> ());
  let per_event ns = ns /. 1e3 /. float_of_int traced.events in
  let o = last untraced in
  let rp = o.W.o_report in
  let serve_field f =
    match o.W.o_serve with Some s -> float_of_int (f s) | None -> 0.0
  in
  let failed = print_accounting untraced in
  print_result ~attempted:untraced.events ~failed
    ([
       metric "machine.simulate_us" "us" (mean_us "simulate");
       metric "machine.simulate_share" "ratio" (share "simulate");
       metric "machine.simulate_calls" "count"
         (float_of_int (Stage.agg_count agg "simulate")
         /. float_of_int staged.passes);
       metric "machine.layout_us" "us" (mean_us "layout");
       metric "jit.compiles" "count" (W.gauge rp "jit.real_compiles");
       metric "jit.lower_us" "us" (mean_us "lower");
       metric "jit.emit_us" "us" (mean_us "emit");
       metric "jit.regalloc_us" "us" (mean_us "regalloc");
       metric "machine.prepare_us" "us" (mean_us "prepare");
       metric "jit.compile_share" "ratio" jit_share;
       metric "vecir.slot_compile_us" "us" (mean_us "slot_compile");
       metric "vecir.bytecode_bytes" "bytes" (float_of_int (bytecode_bytes w));
       metric "vectorizer.vectorize_ms" "ms" vec_ms;
       metric "runtime.cache_hit_ratio" "ratio" rp.Service.rp_hit_rate;
       metric "runtime.evictions" "count" (float_of_int rp.Service.rp_evictions);
       metric "runtime.rejuvenations" "count"
         (float_of_int rp.Service.rp_rejuvenations);
       metric "runtime.replay_event_self_us" "us"
         (per_event (Spans.self_ns tracer_fold "replay_event"));
       metric "runtime.exec_self_us" "us"
         (per_event (Spans.self_ns tracer_fold "exec"));
       metric "runtime.unattributed_share" "ratio"
         (ratio unattributed pass_ns);
     ]
    @ mcycles_by_target w o
    @ [
        (* Serve.run's wall time outside the runtime's replay_event spans *)
        metric "serve.engine_self_us" "us"
          (if o.W.o_serve = None then 0.0
           else per_event (pass_ns -. Spans.total_ns tracer_fold "replay_event"));
        metric "serve.mean_batch_size" "count"
          (W.gauge rp "serve.mean_batch_size");
        metric "serve.batches" "count" (serve_field (fun s -> s.Serve.sr_batches));
        metric "serve.peak_queue" "count"
          (serve_field (fun s -> s.Serve.sr_peak_queue));
        metric "serve.journal_admits" "count" (W.gauge rp "serve.journal_admits");
        metric "serve.checkpoints" "count"
          (serve_field (fun s -> s.Serve.sr_checkpoints));
        metric "serve.journal_bytes" "bytes"
          (float_of_int untraced.journal_bytes);
        (* interleaved passes, so the ratio of medians sees one host *)
        metric "obs.trace_overhead" "ratio"
          (ratio (median (Array.of_list traced.pass_ns))
             (median (Array.of_list untraced.pass_ns)));
      ])

let () =
  let a = parse_args () in
  match a.phase with
  | "setup" -> setup_phase a
  | "check" -> check_phase a
  | "heap" -> heap_phase a
  | _ -> if a.trace then per_layer a else end_to_end a
