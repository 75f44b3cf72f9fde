(* Tests for crash-resilient serving: journal frame/checkpoint codec
   round trips (QCheck) with truncation and bit-flip rejection, the
   supervisor's escalation ladder (restart streaks, degraded serving,
   typed shedding), kill-at-every-dispatch-boundary sweeps proving the
   recovered drain report is byte-identical to the crash-free run for
   any --domains, torn-entry-free store merges under crashes, on-disk
   journal verification, and breaker half-open probes landing intact
   through a crashed shard's replay. *)

module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Faults = Vapor_runtime.Faults
module Tiered = Vapor_runtime.Tiered
module Store = Vapor_store.Store
module Ingress = Vapor_serve.Ingress
module Workload = Vapor_serve.Workload
module Serve = Vapor_serve.Serve
module Journal = Vapor_serve.Journal
module Supervisor = Vapor_serve.Supervisor

let sse = Vapor_targets.Sse.target
let fail = Alcotest.fail
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let base_cfg () = Service.default_config ~targets:[ sse ]

let serve_cfg ?(domains = 1) ?(lanes = 2) ?(budget = 8) ?faults
    ?(threshold = 3) ?(cooldown = 1_000_000) ?(max_batch = 1)
    ?(batch_window = 1024) ?(checkpoint_every = 0) ?journal_dir
    ?(restart_limit = 3) ?(lane_stall_limit = 8192) ?(crash_at = [])
    ?(wedge_at = []) cfg =
  {
    Serve.sv_service = cfg;
    sv_domains = domains;
    sv_lanes = lanes;
    sv_budget = budget;
    sv_backlog = None;
    sv_faults = faults;
    sv_breaker_threshold = threshold;
    sv_breaker_cooldown = cooldown;
    sv_max_batch = max_batch;
    sv_batch_window = batch_window;
    sv_checkpoint_every = checkpoint_every;
    sv_journal_dir = journal_dir;
    sv_restart_limit = restart_limit;
    sv_lane_stall_limit = lane_stall_limit;
    sv_crash_at = crash_at;
    sv_wedge_at = wedge_at;
  }

let temp_journal_dir () = Filename.temp_dir "vapor_journal" ".test"
let temp_store_dir () = Filename.temp_dir "vapor_recover_store" ".test"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- journal frame codec (QCheck) ---------------------------------------- *)

let frame_to_string = function
  | Journal.Admit a ->
    Printf.sprintf "Admit{seq=%d;at=%d;index=%d;kernel=%S;target=%d;scale=%d}"
      a.f_seq a.f_at a.f_index a.f_kernel a.f_target a.f_scale
  | Journal.Complete c ->
    Printf.sprintf "Complete{seq=%d;flags=%d}" c.f_seq c.f_flags
  | Journal.Mark m -> Printf.sprintf "Mark{ckpt=%d;at=%d}" m.f_ckpt m.f_at

let frame_gen =
  QCheck.Gen.(
    let small_str = string_size ~gen:printable (int_bound 12) in
    oneof
      [
        map
          (fun (seq, at, index, kernel, target, scale) ->
            Journal.Admit
              {
                f_seq = seq;
                f_at = at;
                f_index = index;
                f_kernel = kernel;
                f_target = target;
                f_scale = scale;
              })
          (tup6 (int_bound 1_000_000) (int_bound 1_000_000)
             (int_bound 10_000) small_str (int_bound 7) (int_bound 64));
        map
          (fun (seq, flags) -> Journal.Complete { f_seq = seq; f_flags = flags })
          (tup2 (int_bound 1_000_000) (int_bound 7));
        map
          (fun (ckpt, at) -> Journal.Mark { f_ckpt = ckpt; f_at = at })
          (tup2 (int_bound 1_000) (int_bound 1_000_000));
      ])

let frame_arb = QCheck.make ~print:frame_to_string frame_gen

let frames_arb =
  QCheck.make
    ~print:(fun fs -> String.concat "; " (List.map frame_to_string fs))
    QCheck.Gen.(list_size (int_bound 8) frame_gen)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:300 ~name:"frame codec round trips" frame_arb
    (fun f -> Journal.decode_frames (Journal.encode_frame f) = Ok [ f ])

let prop_segment_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame sequences round trip" frames_arb
    (fun fs ->
      let body = String.concat "" (List.map Journal.encode_frame fs) in
      Journal.decode_frames body = Ok fs)

let prop_rejects_truncation =
  QCheck.Test.make ~count:200 ~name:"torn frame tail rejected" frame_arb
    (fun f ->
      let s = Journal.encode_frame f in
      match Journal.decode_frames (String.sub s 0 (String.length s - 1)) with
      | Error _ -> true
      | Ok _ -> false)

let prop_rejects_bitflip =
  QCheck.Test.make ~count:200 ~name:"flipped payload byte rejected" frame_arb
    (fun f ->
      let s = Bytes.of_string (Journal.encode_frame f) in
      let last = Bytes.length s - 1 in
      Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 0xff));
      match Journal.decode_frames (Bytes.to_string s) with
      | Error _ -> true
      | Ok _ -> false)

(* --- checkpoint artifact codec ------------------------------------------- *)

let sample_checkpoint =
  {
    Journal.ck_shard = 1;
    ck_ckpt = 3;
    ck_at = 8192;
    ck_cache_rows =
      [ ("d1", "sse", "mono", 128, 7); ("d2", "sse", "mono", 64, 9) ];
    ck_tier_rows =
      [ ("saxpy_fp", "sse", "jit", 42, false); ("sfir_fp", "sse", "interp", 3, true) ];
    ck_counters = [ ("cache.hits", 9); ("tier.promotions", 2) ];
    ck_breaker_open = 1;
  }

let checkpoint_codec_case () =
  let s = Journal.encode_checkpoint sample_checkpoint in
  (match Journal.decode_checkpoint s with
  | Ok ck -> check_bool "artifact round trips" true (ck = sample_checkpoint)
  | Error m -> fail ("decode_checkpoint: " ^ m));
  (match Journal.decode_checkpoint (String.sub s 0 (String.length s - 1)) with
  | Error _ -> ()
  | Ok _ -> fail "torn artifact accepted");
  let flipped = Bytes.of_string s in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last
    (Char.chr (Char.code (Bytes.get flipped last) lxor 0xff));
  (match Journal.decode_checkpoint (Bytes.to_string flipped) with
  | Error _ -> ()
  | Ok _ -> fail "flipped artifact accepted");
  match Journal.decode_checkpoint ("XXXX" ^ String.sub s 4 (String.length s - 4)) with
  | Error _ -> ()
  | Ok _ -> fail "bad magic accepted"

(* --- supervisor escalation ladder (unit level) --------------------------- *)

let escalation_ladder_case () =
  let pool = Service.pool_create (base_cfg ()) ~kernels:[ "saxpy_fp" ] in
  let sv = Supervisor.create ~restart_limit:1 ~crash_plan:[ 0; 1; 2 ] pool in
  check_bool "crash 1: restart inside the limit serves normally" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:0 = Supervisor.Run);
  check_bool "still active after one restart" true
    (Supervisor.shard_mode sv ~shard:0 = `Active);
  check_bool "crash 2 in probation: degraded to interp-only" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:10 = Supervisor.Run_interp_only);
  check_bool "mode is degraded" true
    (Supervisor.shard_mode sv ~shard:0 = `Degraded);
  check_bool "crash while degraded: shard sheds" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:20 = Supervisor.Shed);
  check_bool "mode is shedding" true
    (Supervisor.shard_mode sv ~shard:0 = `Shedding);
  check_bool "shedding is permanent" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:1_000_000 = Supervisor.Shed);
  check_int "three crashes recorded" 3 (Supervisor.crashes sv);
  check_int "three checkpoint restores" 3 (Supervisor.restarts sv)

let degraded_heal_case () =
  let pool = Service.pool_create (base_cfg ()) ~kernels:[ "saxpy_fp" ] in
  let sv = Supervisor.create ~restart_limit:1 ~crash_plan:[ 0; 1 ] pool in
  check_bool "first crash tolerated" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:0 = Supervisor.Run);
  check_bool "second crash degrades" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:10 = Supervisor.Run_interp_only);
  check_bool "degraded window serves interp-only" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:100 = Supervisor.Run_interp_only);
  (* The degraded window is backoff_base * 2^restart_limit cycles wide:
     once it lapses without a crash, the shard heals to full service. *)
  check_bool "lapsed window heals to normal serving" true
    (Supervisor.on_dispatch sv ~shard:0 ~now:100_000 = Supervisor.Run);
  check_bool "healed shard is active" true
    (Supervisor.shard_mode sv ~shard:0 = `Active)

(* --- kill at every dispatch boundary: byte-identical recovery ------------- *)

let kill_sweep_case () =
  let trace = Trace.standard ~length:48 ~n_targets:1 () in
  let run ~domains ~crash_at =
    Serve.run
      (serve_cfg ~domains ~checkpoint_every:64 ~crash_at (base_cfg ()))
      (Workload.of_trace ~streams:4 trace)
  in
  (* Recovery machinery alone (supervisor on, no crashes) must not move
     the report off the recovery-free baseline. *)
  let plain =
    Serve.report_to_string
      (Serve.run (serve_cfg ~domains:2 (base_cfg ()))
         (Workload.of_trace ~streams:4 trace))
  in
  let baseline = run ~domains:2 ~crash_at:[] in
  check_string "supervised == unsupervised, byte-identical" plain
    (Serve.report_to_string baseline);
  check_bool "periodic checkpoints actually ran" true
    (baseline.Serve.sr_checkpoints > 1);
  (* Kill shard at every dispatch ordinal in turn: each recovered run
     must print byte-identically to the crash-free one. *)
  let baseline_str = Serve.report_to_string baseline in
  for k = 0 to 47 do
    let rep = run ~domains:2 ~crash_at:[ k ] in
    check_string (Printf.sprintf "domains=2 kill@%d recovers identically" k)
      baseline_str
      (Serve.report_to_string rep);
    check_int (Printf.sprintf "kill@%d: one crash" k) 1 rep.Serve.sr_crashes;
    check_int (Printf.sprintf "kill@%d: one restart" k) 1 rep.Serve.sr_restarts
  done;
  (* Spot-check the other domain counts across the sweep. *)
  List.iter
    (fun domains ->
      let base = Serve.report_to_string (run ~domains ~crash_at:[]) in
      List.iter
        (fun k ->
          let rep = run ~domains ~crash_at:[ k ] in
          check_string
            (Printf.sprintf "domains=%d kill@%d recovers identically" domains k)
            base
            (Serve.report_to_string rep))
        [ 0; 7; 19; 23; 31; 42; 47 ])
    [ 1; 4 ]

let multi_kill_case () =
  (* Several kills in one run, spread across shards.  The long
     checkpoint period keeps the journal suffix non-empty, so every
     recovery actually replays completed work. *)
  let trace = Trace.standard ~length:60 ~n_targets:1 () in
  let run crash_at =
    Serve.run
      (serve_cfg ~domains:4 ~checkpoint_every:1_000_000 ~crash_at
         (base_cfg ()))
      (Workload.of_trace ~streams:4 trace)
  in
  let baseline = Serve.report_to_string (run []) in
  let rep = run [ 3; 11; 26; 40; 55 ] in
  check_string "five kills, still byte-identical" baseline
    (Serve.report_to_string rep);
  check_int "five crashes" 5 rep.Serve.sr_crashes;
  check_int "five restarts" 5 rep.Serve.sr_restarts;
  check_bool "journal suffixes were replayed" true (rep.Serve.sr_replayed > 0);
  check_int "nothing lost" 0 rep.Serve.sr_lost

(* --- crashes never tear the sharded store merge --------------------------- *)

let store_merge_integrity_case () =
  let dir = temp_store_dir () in
  let store =
    match Store.open_store ~create:true dir with
    | Ok s -> s
    | Error m -> fail ("open_store: " ^ m)
  in
  let cfg = { (base_cfg ()) with Service.cfg_store = Some store } in
  let trace = Trace.standard ~length:60 ~n_targets:1 () in
  let rep =
    Serve.run
      (serve_cfg ~domains:2 ~checkpoint_every:64 ~crash_at:[ 3; 17; 41 ] cfg)
      (Workload.of_trace ~streams:4 trace)
  in
  check_int "three crashes recovered" 3 rep.Serve.sr_crashes;
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  check_bool "the merge published entries" true (Store.entry_count store > 0);
  check_int "no torn entries in the merged store" 0
    (List.length (Store.verify store));
  (* A fresh open (the crash-consistency path) sees the same clean store. *)
  match Store.open_store dir with
  | Error m -> fail ("reopen: " ^ m)
  | Ok reopened ->
    check_int "reopened store verifies clean" 0
      (List.length (Store.verify reopened));
    check_int "reopen lost no entries" (Store.entry_count store)
      (Store.entry_count reopened)

(* --- on-disk journal segments verify, and tears are caught ---------------- *)

let journal_disk_case () =
  let dir = temp_journal_dir () in
  let trace = Trace.standard ~length:40 ~n_targets:1 () in
  let wl = Workload.of_trace ~streams:4 trace in
  let rep =
    Serve.run
      (serve_cfg ~domains:2 ~checkpoint_every:64 ~journal_dir:dir
         ~crash_at:[ 9; 21 ] (base_cfg ()))
      wl
  in
  check_int "everything answered through the crashes" (Workload.total wl)
    rep.Serve.sr_answered;
  (match Journal.verify_dir dir with
  | Error m -> fail ("verify_dir on a clean journal: " ^ m)
  | Ok s ->
    check_bool "segments on disk" true (s.Journal.ds_segments > 0);
    check_int "every admission journaled" (Workload.total wl)
      s.Journal.ds_admits;
    check_bool "checkpoint artifacts on disk" true (s.Journal.ds_checkpoints > 0));
  (* Tear the tail off one published segment: verification must fail. *)
  let victim =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".vjl")
    |> List.sort compare |> List.hd |> Filename.concat dir
  in
  let body =
    let ic = open_in_bin victim in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let oc = open_out_bin victim in
  output_string oc (String.sub body 0 (String.length body - 1));
  close_out oc;
  match Journal.verify_dir dir with
  | Error _ -> ()
  | Ok _ -> fail "torn segment passed verification"

(* Enough frames to cross the rotation threshold twice: every rotated
   segment is published under its checkpoint-numbered name, the drain
   publishes the rest, no .tmp survives, and verification sees every
   frame exactly once. *)
let journal_rotation_case () =
  let dir = temp_journal_dir () in
  let j = Journal.create ~dir ~shard:0 () in
  let ev = List.hd (Trace.standard ~length:1 ~n_targets:1 ()).Trace.tr_events in
  let events = 6_000 in
  for i = 0 to events - 1 do
    let ev = { ev with Trace.ev_index = i } in
    Journal.note_admit j ~at:(i * 10) ~seq:i ev;
    Journal.note_complete j ~seq:i ev ~interp_only:false ~force_oracle:false
      ~real_compile:(i mod 7 = 0);
    if i mod 2 = 1 then
      Journal.checkpoint j ~ckpt:(i / 2) ~at:(i * 10) (fun () ->
          {
            Journal.ck_shard = 0;
            ck_ckpt = i / 2;
            ck_at = i * 10;
            ck_cache_rows = [];
            ck_tier_rows = [];
            ck_counters = [];
            ck_breaker_open = 0;
          })
  done;
  Journal.finalize j;
  let files = Array.to_list (Sys.readdir dir) in
  let rotated =
    List.filter
      (fun f ->
        Filename.check_suffix f ".vjl"
        && not (String.equal f "shard-0.final.vjl"))
      files
  in
  check_bool "rotated at least twice" true (List.length rotated >= 2);
  check_int "segment count" (List.length rotated + 1) (Journal.segments j);
  check_bool "final segment published" true
    (List.mem "shard-0.final.vjl" files);
  check_bool "no .tmp after drain" false
    (List.exists (fun f -> Filename.check_suffix f ".tmp") files);
  match Journal.verify_dir dir with
  | Error m -> fail ("verify_dir after rotation: " ^ m)
  | Ok s ->
    check_int "segments verified" (List.length rotated + 1)
      s.Journal.ds_segments;
    check_int "every admission once" events s.Journal.ds_admits;
    check_int "every completion once" events s.Journal.ds_completes;
    check_int "one artifact per published segment" (List.length rotated + 1)
      s.Journal.ds_checkpoints

(* --- restart-limit escalation: interp-only, then typed shedding ----------- *)

let shedding_escalation_case () =
  let trace = Trace.standard ~length:40 ~n_targets:1 () in
  let wl = Workload.of_trace ~streams:4 ~interval:0 trace in
  let rep =
    Serve.run
      (serve_cfg ~domains:1 ~checkpoint_every:64 ~restart_limit:1
         ~crash_at:(List.init 12 (fun i -> i))
         (base_cfg ()))
      wl
  in
  check_bool "escalation shed typed losses" true (rep.Serve.sr_crash_shed > 0);
  check_int "conservation holds through shedding" 0 rep.Serve.sr_lost;
  check_int "answered + crash-shed covers the workload" (Workload.total wl)
    (rep.Serve.sr_answered + rep.Serve.sr_crash_shed);
  check_bool "shedding is visible in the printed report" true
    (contains ~sub:"resilience:" (Serve.report_to_string rep));
  (* The healthy path never prints the resilience line. *)
  let healthy =
    Serve.run (serve_cfg ~domains:1 (base_cfg ()))
      (Workload.of_trace ~streams:4 trace)
  in
  check_bool "no resilience line without losses" false
    (contains ~sub:"resilience:" (Serve.report_to_string healthy))

(* --- wedged-lane watchdog: typed timeouts, conservation -------------------- *)

let wedge_watchdog_case () =
  let trace = Trace.standard ~length:30 ~n_targets:1 () in
  let run wedge_at =
    Serve.run
      (serve_cfg ~domains:2 ~checkpoint_every:64 ~lane_stall_limit:16
         ~wedge_at (base_cfg ()))
      (Workload.of_trace ~streams:4 trace)
  in
  let rep = run [ 2; 9 ] in
  check_int "two wedges resolved" 2 rep.Serve.sr_wedges;
  check_bool "wedged members closed as typed timeouts" true
    (rep.Serve.sr_lane_stalls > 0);
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  check_bool "stalls visible in the printed report" true
    (contains ~sub:"lane-stalled" (Serve.report_to_string rep));
  (* Deterministic: the same wedge plan prints the same report. *)
  check_string "wedge runs are deterministic"
    (Serve.report_to_string (run [ 2; 9 ]))
    (Serve.report_to_string rep)

(* --- breaker half-open probe lands through a crashed shard's replay ------- *)

let ev i kernel =
  { Trace.ev_index = i; ev_kernel = kernel; ev_target = 0; ev_scale = 2 }

let probe_workload () =
  let streams =
    [|
      Workload.stream ~id:0 ~queue_cap:8 ~deadline:1 ();
      Workload.stream ~id:1 ~queue_cap:8 ();
    |]
  in
  (* Same shape as test_serve's breaker walk: s0 floods two events at
     t=0 through one lane so the second busts its 1-cycle budget and
     opens the breaker (threshold 1); s1 then serves one event degraded
     inside the cooldown, one half-open probe after it, one normal. *)
  let events =
    [
      (0, 0, 0, "saxpy_fp");
      (0, 1, 0, "saxpy_fp");
      (40_000, 2, 1, "saxpy_fp");
      (200_000, 3, 1, "saxpy_fp");
      (300_000, 4, 1, "saxpy_fp");
    ]
  in
  let seqs = Array.make (Array.length streams) 0 in
  let arrivals =
    List.map
      (fun (at, seq, sid, kernel) ->
        let k = seqs.(sid) in
        seqs.(sid) <- k + 1;
        {
          Workload.ar_at = at;
          ar_seq = seq;
          ar_stream = sid;
          ar_stream_seq = k;
          ar_event = ev seq kernel;
        })
      events
  in
  {
    Workload.wl_desc = "probe-under-recovery";
    wl_kernels = [ "saxpy_fp" ];
    wl_streams = streams;
    wl_arrivals = Array.of_list arrivals;
  }

let probe_during_replay_case () =
  (* Dispatch ordinals here: 0 = the served flood event, 1 = the
     degraded interp-only serve, 2 = the half-open probe, 3 = the
     post-close normal serve.  Killing the shard at ordinal 2 forces the
     probe through checkpoint restore + journal replay; batching is on,
     so the probe must still bypass formation and land its verdict. *)
  let run crash_at =
    Serve.run
      (serve_cfg ~lanes:1 ~budget:1 ~threshold:1 ~cooldown:50_000
         ~max_batch:4 ~checkpoint_every:16_384 ~crash_at (base_cfg ()))
      (probe_workload ())
  in
  let baseline = run [] in
  let rep = run [ 2 ] in
  check_int "crash recovered" 1 rep.Serve.sr_crashes;
  check_int "breaker opened once" 1 rep.Serve.sr_breaker_opens;
  check_int "one degraded serve in the cooldown" 1 rep.Serve.sr_interp_only;
  check_int "the probe still fired" 1 rep.Serve.sr_breaker_half_opens;
  check_int "probe forced its oracle check" 1 rep.Serve.sr_probes;
  check_int "clean probe closed the breaker" 1 rep.Serve.sr_breaker_closes;
  check_int "four events answered" 4 rep.Serve.sr_answered;
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  check_string "probe-through-replay run is byte-identical"
    (Serve.report_to_string baseline)
    (Serve.report_to_string rep)

(* --- seeded crash schedules: determinism and conservation ------------------ *)

let seeded_crash_case () =
  let trace = Trace.standard ~length:80 ~n_targets:1 () in
  let run () =
    (* Mirror vaporc's --crash-rate wiring: a crash-only injector, no
       oracle, threaded through the guard (where the supervisor clones
       its private crash stream from) and the serve config. *)
    let f =
      Faults.make
        { Faults.default_spec with Faults.f_seed = 7; f_shard_crash_rate = 0.05 }
    in
    let cfg =
      {
        (base_cfg ()) with
        Service.cfg_guard = { Tiered.no_guard with Tiered.g_faults = Some f };
      }
    in
    Serve.run
      (serve_cfg ~domains:2 ~faults:f ~checkpoint_every:64 cfg)
      (Workload.of_trace ~streams:4 trace)
  in
  let baseline =
    Serve.run
      (serve_cfg ~domains:2 ~checkpoint_every:64 (base_cfg ()))
      (Workload.of_trace ~streams:4 trace)
  in
  let rep = run () in
  check_bool "the seeded schedule crashed at least once" true
    (rep.Serve.sr_crashes > 0);
  check_int "nothing lost" 0 rep.Serve.sr_lost;
  check_string "seeded crashes recover byte-identically"
    (Serve.report_to_string baseline)
    (Serve.report_to_string rep);
  check_string "same seed, same schedule, same report"
    (Serve.report_to_string (run ()))
    (Serve.report_to_string rep)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "recover"
    [
      qsuite "journal codec"
        [
          prop_frame_roundtrip;
          prop_segment_roundtrip;
          prop_rejects_truncation;
          prop_rejects_bitflip;
        ];
      ( "checkpoint codec",
        [
          Alcotest.test_case "artifact round trip and rejection" `Quick
            checkpoint_codec_case;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "escalation ladder to shedding" `Quick
            escalation_ladder_case;
          Alcotest.test_case "degraded window heals" `Quick degraded_heal_case;
        ] );
      ( "recovery identity",
        [
          Alcotest.test_case "kill at every dispatch boundary" `Slow
            kill_sweep_case;
          Alcotest.test_case "multiple kills across shards" `Quick
            multi_kill_case;
          Alcotest.test_case "seeded crash schedule" `Quick seeded_crash_case;
        ] );
      ( "durability",
        [
          Alcotest.test_case "store merge never tears" `Quick
            store_merge_integrity_case;
          Alcotest.test_case "journal segments verify on disk" `Quick
            journal_disk_case;
          Alcotest.test_case "segments rotate by size" `Quick
            journal_rotation_case;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "restart limit sheds typed losses" `Quick
            shedding_escalation_case;
          Alcotest.test_case "wedged-lane watchdog" `Quick wedge_watchdog_case;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "half-open probe through replay" `Quick
            probe_during_replay_case;
        ] );
    ]
