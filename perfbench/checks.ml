(* Output checks, run before any timing.

   The report of the benchmark's own pass must equal the public driver's
   ([Service.replay] or [Serve.run]) byte for byte, and must equal a
   [Tiered.Reference] run of the same workload.  Every distinct (kernel, target,
   scale) the workload runs goes through the JIT once and is compared to
   scalar [Eval] of the source kernel: integer arrays bit-exact, float
   arrays within the 1e-3 relative tolerance the test suite uses. *)

module Eval = Vapor_ir.Eval
module Buffer_ = Vapor_ir.Buffer_
module Compile = Vapor_jit.Compile
module Exec = Vapor_harness.Exec
module Flows = Vapor_harness.Flows
module Driver = Vapor_vectorizer.Driver
module Suite = Vapor_kernels.Suite
module Trace = Vapor_runtime.Trace
module Service = Vapor_runtime.Service
module Tiered = Vapor_runtime.Tiered
module Serve = Vapor_serve.Serve
module Target = Vapor_targets.Target
module W = Workloads

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let fp_eps = 1e-3

let same what ~expected ~got =
  if not (String.equal expected got) then
    fail "%s: reports differ (%d vs %d bytes)" what (String.length expected)
      (String.length got)

(* Distinct (kernel, target, scale) triples, in first-run order. *)
let bodies w =
  let seen = Hashtbl.create 64 in
  List.fold_left2
    (fun acc (ev : Trace.event) (t : Target.t) ->
      let key = ev.Trace.ev_kernel, t.Target.name, ev.Trace.ev_scale in
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.replace seen key ();
        (ev.Trace.ev_kernel, t, ev.Trace.ev_scale) :: acc
      end)
    [] w.W.trace.Trace.tr_events (W.event_targets w)
  |> List.rev

(* JIT one body, run it, compare with scalar Eval; returns its machine
   code size in bytes (4 per emitted instruction, the code cache's
   model). *)
let check_body (cfg : Service.config) (kernel, (target : Target.t), scale) =
  let entry = Suite.find kernel in
  let vk = (Flows.vectorized_bytecode entry).Driver.vkernel in
  match Compile.compile_checked ~target ~profile:cfg.Service.cfg_profile vk with
  | Error e ->
    fail "%s on %s: JIT compile failed: %s" kernel target.Target.name
      (Compile.lower_error_to_string e)
  | Ok c ->
    let expected = entry.Suite.args ~scale in
    ignore (Eval.run (Suite.kernel entry) ~args:expected);
    let got = entry.Suite.args ~scale in
    (match Exec.run_checked target c ~args:got with
    | Ok _ -> ()
    | Error e ->
      fail "%s on %s: execution failed: %s" kernel target.Target.name
        (Exec.exec_error_to_string e));
    List.iter2
      (fun (name, b1) (_, b2) ->
        if not (Buffer_.close ~eps:fp_eps b1 b2) then
          fail "%s on %s at scale %d: array %s differs from scalar Eval" kernel
            target.Target.name scale name)
      (Suite.arrays_of_args expected)
      (Suite.arrays_of_args got);
    4 * Array.length c.Compile.mfun.Vapor_machine.Mfun.instrs

type result = {
  code_bytes_per_body : float;
  bodies_checked : int;
  text_digest : string;  (** MD5 of the checked report, hex *)
}

let reference_cfg (cfg : Service.config) =
  { cfg with Service.cfg_engine = Tiered.Reference }

(* Run every check; raises [Mismatch] on the first failure.  [journal_dir]
   makes a fresh journal directory for each serve-flood pass. *)
let run w ~journal_dir =
  let spans = Spans.create () in
  let serve_wl = W.serve_workload w.W.trace in
  let fresh () = if w.W.kind = W.Serve_flood then Some (journal_dir ()) else None in
  let pass () = W.pass ?journal_dir:(fresh ()) ~serve_wl spans w in
  let o = pass () in
  (match w.W.kind with
  | W.Replay_hot | W.Jit_churn ->
    same "benchmark pass vs Service.replay"
      ~expected:(Service.report_to_string (Service.replay w.W.cfg w.W.trace))
      ~got:o.W.o_text;
    same "benchmark pass vs Tiered.Reference replay"
      ~expected:
        (Service.report_to_string
           (Service.replay (reference_cfg w.W.cfg) w.W.trace))
      ~got:o.W.o_text
  | W.Serve_flood ->
    same "Serve.run pass vs a second Serve.run" ~expected:o.W.o_text
      ~got:(pass ()).W.o_text;
    same "Serve.run vs Tiered.Reference Serve.run" ~expected:o.W.o_text
      ~got:
        (Serve.report_to_string
           (Serve.run
              (W.serve_cfg ?journal_dir:(fresh ())
                 (reference_cfg w.W.cfg))
              serve_wl));
    (match o.W.o_serve with
    | Some sr when sr.Serve.sr_lost <> 0 ->
      fail "serve-flood lost %d events" sr.Serve.sr_lost
    | _ -> ()));
  (* Code size counts the (kernel, target) bodies the pass compiled. *)
  let compiled =
    List.filter_map
      (fun (r : Service.kernel_row) ->
        if r.Service.kr_cold_compile_us > 0.0 then
          Some (r.Service.kr_kernel, r.Service.kr_target)
        else None)
      o.W.o_report.Service.rp_rows
  in
  let bodies = bodies w in
  let code = Hashtbl.create 64 in
  List.iter
    (fun ((kernel, (t : Target.t), _) as b) ->
      let bytes = check_body w.W.cfg b in
      if List.mem (kernel, t.Target.name) compiled then
        Hashtbl.replace code (kernel, t.Target.name) bytes)
    bodies;
  if Hashtbl.length code = 0 then fail "the pass compiled no body";
  let total = Hashtbl.fold (fun _ b acc -> acc + b) code 0 in
  {
    code_bytes_per_body = float_of_int total /. float_of_int (Hashtbl.length code);
    bodies_checked = List.length bodies;
    text_digest = Digest.to_hex (Digest.string o.W.o_text);
  }
