(* The benchmark's workloads and the calls that drive them.

   All three are generated from [Trace.standard] with the seed the
   benchmark is given; the program only ever receives the generated
   traces.  Each is a closed loop with one caller and one event in
   flight, run as fast as the host allows, on one domain.  Why each
   workload exists is recorded in BENCHMARK.json. *)

module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Serve = Vapor_serve.Serve
module Swl = Vapor_serve.Workload
module Target = Vapor_targets.Target
module Suite = Vapor_kernels.Suite

type kind =
  | Replay_hot
  | Jit_churn
  | Serve_flood

let all =
  [
    "replay-hot", Replay_hot;
    "jit-churn", Jit_churn;
    "serve-flood", Serve_flood;
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) all)

(* Trace lengths: one pass takes about a second or less, so a run holds
   many passes while per-pass start-up cost stays small. *)
let hot_length = 10_000
let churn_length = 3_000

let sse = Vapor_targets.Sse.target
let sve_default = Target.resolve Vapor_targets.Sve.target

(* The seven-archetype fleet population, as in the bench harness's
   heterogeneous-fleet part. *)
let fleet =
  [
    Vapor_targets.Scalar_target.target;
    sse;
    Vapor_targets.Avx.target;
    Vapor_targets.Neon.target;
    Vapor_targets.Altivec.target;
    Target.resolve ~vl:16 Vapor_targets.Sve.target;
    Vapor_targets.Avx512.target;
  ]

(* Every target any workload can serve on, upgrade targets included. *)
let target_names =
  List.map (fun t -> t.Target.name) fleet @ [ sve_default.Target.name ]

(* Serving shape: the replay-hot trace split into 8 streams at 2 priority
   levels, one arrival every [serve_interval] virtual cycles (about two
   thirds of the two lanes' capacity), each with a per-event deadline.
   At this rate nothing is shed and no deadline is missed, so every
   arrival is an operation that succeeds; the capacity ladder below
   probes the rates where that stops holding. *)
let serve_streams = 8
let serve_priority_levels = 2
let serve_interval = 6_000
let serve_deadline = 1_000_000
let serve_max_batch = 8
let serve_checkpoint_every = 2_000_000

(* Arrival intervals (virtual cycles) of the capacity ladder, slowest
   first, rungs 2.5% apart: from 100 to about 480 events per million
   cycles. *)
let capacity_ladder =
  Array.init 64 (fun i -> int_of_float (10_000.0 /. Float.pow 1.025 (float_of_int i)))

(* Events of the trace prefix the capacity ladder serves. *)
let capacity_events = 5_000

type t = {
  kind : kind;
  trace : Trace.t;
  cfg : Service.config;
}

let make kind ~seed =
  match kind with
  | Replay_hot | Serve_flood ->
    {
      kind;
      trace = Trace.standard ~seed ~length:hot_length ~n_targets:1 ();
      cfg = Service.default_config ~targets:[ sse ];
    }
  | Jit_churn ->
    let upgrade_at = churn_length / 3 in
    {
      kind;
      trace =
        Trace.standard ~seed ~kernels:Suite.names ~scales:[ 1 ]
          ~length:churn_length ~n_targets:(List.length fleet) ();
      cfg =
        {
          (Service.default_config ~targets:fleet) with
          Service.cfg_hotness = 0;
          cfg_max_entries = 64;
          cfg_retargets =
            [
              upgrade_at, sse, Vapor_targets.Avx512.target;
              upgrade_at, Vapor_targets.Neon.target, sve_default;
            ];
        };
    }

let events w = Trace.length w.trace

let serve_workload ?(interval = serve_interval) trace =
  Swl.of_trace ~streams:serve_streams ~priority_levels:serve_priority_levels
    ~deadline:serve_deadline ~interval trace

let serve_cfg ?journal_dir (cfg : Service.config) =
  {
    (Serve.default_cfg cfg) with
    Serve.sv_max_batch = serve_max_batch;
    sv_checkpoint_every =
      (if journal_dir = None then 0 else serve_checkpoint_every);
    sv_journal_dir = journal_dir;
  }

(* The target each event runs on, mirroring the service's retarget
   triggers: a trigger fires at the first event at or past its index. *)
let event_targets w =
  let targets = Array.of_list w.cfg.Service.cfg_targets in
  let fired = Array.make (List.length w.cfg.Service.cfg_retargets) false in
  List.map
    (fun (ev : Trace.event) ->
      List.iteri
        (fun i (at, from_t, to_t) ->
          if (not fired.(i)) && ev.Trace.ev_index >= at then begin
            fired.(i) <- true;
            Array.iteri
              (fun j t ->
                if String.equal t.Target.name from_t.Target.name then
                  targets.(j) <- to_t)
              targets
          end)
        w.cfg.Service.cfg_retargets;
      targets.(ev.Trace.ev_target mod Array.length targets))
    w.trace.Trace.tr_events

(* --- one pass over the workload ----------------------------------------- *)

type outcome = {
  o_text : string;  (** the report as printed: the byte-identity view *)
  o_report : Service.report;
  o_serve : Serve.report option;
  o_records : Service.event_record list;  (** [] unless the harness stepped *)
  o_attempted : int;
  o_failed : (string * int) list;  (** failures by cause, nonzero only *)
}

let outcome_failures (rp : Service.report) =
  [
    "oracle_mismatch", rp.Service.rp_oracle_mismatches;
    "exec_fault", rp.Service.rp_exec_faults;
    "compile_error", rp.Service.rp_compile_errors;
  ]

let nonzero l = List.filter (fun (_, n) -> n <> 0) l

let replay_outcome w (rp : Service.report) ~records =
  let lost = events w - rp.Service.rp_invocations in
  {
    o_text = Service.report_to_string rp;
    o_report = rp;
    o_serve = None;
    o_records = records;
    o_attempted = events w;
    o_failed = nonzero (("lost", lost) :: outcome_failures rp);
  }

let serve_outcome (sr : Serve.report) =
  {
    o_text = Serve.report_to_string sr;
    o_report = sr.Serve.sr_service;
    o_serve = Some sr;
    o_records = [];
    o_attempted = sr.Serve.sr_total;
    o_failed =
      nonzero
        ([
           "shed", sr.Serve.sr_shed_ingress + sr.Serve.sr_shed_overload;
           "event_deadline", sr.Serve.sr_deadline_misses;
           "stream_deadline", sr.Serve.sr_stream_deadline_misses;
           "injected_exhaustion", sr.Serve.sr_injected_exhaustions;
           "disconnected", sr.Serve.sr_disconnected;
           "crash_shed", sr.Serve.sr_crash_shed + sr.Serve.sr_lane_stalls;
           "lost", sr.Serve.sr_lost;
         ]
        @ outcome_failures sr.Serve.sr_service);
  }

(* Drive the events one by one through a single-shard pool:
   [pool_create] + [shard_step] per event + [pool_report], which is
   exactly what [Service.replay] does.  [between] runs before each event,
   given its index, outside the event's span. *)
let step_pass ?tracer ?(between = fun _ -> ()) spans w =
  let pool =
    Spans.span spans "pool_create" (fun () ->
        Service.pool_create ?tracer w.cfg ~kernels:w.trace.Trace.tr_kernels)
  in
  let records =
    List.map
      (fun (ev : Trace.event) ->
        between ev.Trace.ev_index;
        Spans.span spans "shard_step" (fun () -> Service.shard_step pool ~shard:0 ev))
      w.trace.Trace.tr_events
  in
  let rp =
    Spans.span spans "pool_report" (fun () ->
        Service.pool_report pool ~trace_desc:(Trace.describe w.trace) ~records)
  in
  replay_outcome w rp ~records

(* One pass.  [journal_dir] is the fresh directory serve-flood's journal
   and checkpoints go to; [serve_wl] its prepared serving workload.
   [between] is called only where the benchmark steps the events. *)
let pass ?tracer ?between ?journal_dir ~serve_wl spans w =
  match w.kind with
  | Replay_hot | Jit_churn -> step_pass ?tracer ?between spans w
  | Serve_flood ->
    serve_outcome
      (Spans.span spans "serve_run" (fun () ->
           Serve.run ?tracer (serve_cfg ?journal_dir w.cfg) serve_wl))

(* The name of the benchmark's span around the driver's per-event or
   per-pass call. *)
let driver_span w =
  match w.kind with
  | Replay_hot | Jit_churn -> "shard_step"
  | Serve_flood -> "serve_run"

(* --- serve-flood's virtual-time figures ---------------------------------- *)

(* Deadline slack and serving capacity are properties of serve-flood's
   configuration.  They depend only on the seed's trace and the cost
   models, never on the host, so every workload reports the figures of
   serve-flood at its seed. *)

let serve_flood_of ~seed = make Serve_flood ~seed

let prefix trace n =
  {
    trace with
    Trace.tr_events = List.filteri (fun i _ -> i < n) trace.Trace.tr_events;
  }

let meets_deadline (sr : Serve.report) =
  let shed = sr.Serve.sr_shed_ingress + sr.Serve.sr_shed_overload in
  let missed =
    sr.Serve.sr_deadline_misses + sr.Serve.sr_stream_deadline_misses
  in
  shed = 0 && sr.Serve.sr_lost = 0
  && float_of_int (sr.Serve.sr_total - missed)
     >= 0.99 *. float_of_int sr.Serve.sr_total

(* The highest rung of the ladder at which at least 99% of arrivals meet
   their deadline and nothing is shed, in events per million virtual
   cycles; 0 when even the slowest rung fails.  Binary search: serving a
   rung only gets harder as arrivals come faster. *)
let serve_capacity ~seed =
  let sf = serve_flood_of ~seed in
  let trace = prefix sf.trace capacity_events in
  let ok i =
    meets_deadline
      (Serve.run (serve_cfg sf.cfg)
         (serve_workload ~interval:capacity_ladder.(i) trace))
  in
  if not (ok 0) then 0.0
  else begin
    (* invariant: rung !lo meets the deadline; rung !hi does not, or is
       past the end *)
    let lo = ref 0 and hi = ref (Array.length capacity_ladder) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if ok mid then lo := mid else hi := mid
    done;
    1e6 /. float_of_int capacity_ladder.(!lo)
  end

let gauge (rp : Service.report) name =
  Option.value ~default:0.0
    (Vapor_runtime.Stats.gauge rp.Service.rp_stats name)

(* serve-flood's [serve.deadline_slack_p99] gauge, in virtual kcycles:
   from the pass itself on serve-flood, from serving the seed's
   serve-flood workload on the others. *)
let deadline_slack_kcycles w ~seed (o : outcome) =
  let rp =
    match w.kind with
    | Serve_flood -> o.o_report
    | Replay_hot | Jit_churn ->
      let sf = serve_flood_of ~seed in
      (Serve.run (serve_cfg sf.cfg) (serve_workload sf.trace)).Serve.sr_service
  in
  gauge rp "serve.deadline_slack_p99" /. 1e3
