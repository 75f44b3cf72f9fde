(* Per-shard write-ahead admission journal + checkpoint envelopes.

   The in-memory side is what recovery actually replays: every admitted
   event is recorded before dispatch, every completed event is recorded
   (with its serving flags and the runtime's real-compile hint) after
   execution, and a checkpoint truncates the completed suffix.  The
   on-disk side mirrors the same records into checksummed segment files
   (VAPORJNL) published atomically at checkpoint boundaries once they
   pass a size threshold, next to a
   digest-level checkpoint artifact (VAPORCKP) — the same
   length-prefixed, MD5-checksummed framing idiom as the persistent
   store's entry files, via [Store.Codec]. *)

module Trace = Vapor_runtime.Trace
module Store = Vapor_store.Store
module Md5 = Stdlib.Digest
module Codec = Store.Codec

let segment_magic = "VAPORJNL"
let checkpoint_magic = "VAPORCKP"
let format_version = 1

(* --- frames ------------------------------------------------------------- *)

type frame =
  | Admit of {
      f_seq : int;  (* arrival's global sequence (trace order) *)
      f_at : int;  (* admission virtual time *)
      f_index : int;
      f_kernel : string;
      f_target : int;
      f_scale : int;
    }
  | Complete of {
      f_seq : int;
      f_flags : int;  (* bit0 interp_only, bit1 force_oracle, bit2 real *)
    }
  | Mark of {
      f_ckpt : int;  (* checkpoint ordinal this segment closed at *)
      f_at : int;
    }

let flag_interp_only = 1
let flag_force_oracle = 2
let flag_real_compile = 4

let add_payload b = function
  | Admit a ->
    Codec.put_u32 b 0;
    Codec.put_u32 b a.f_seq;
    Codec.put_u32 b a.f_at;
    Codec.put_u32 b a.f_index;
    Codec.put_str b a.f_kernel;
    Codec.put_u32 b a.f_target;
    Codec.put_u32 b a.f_scale
  | Complete c ->
    Codec.put_u32 b 1;
    Codec.put_u32 b c.f_seq;
    Codec.put_u32 b c.f_flags
  | Mark m ->
    Codec.put_u32 b 2;
    Codec.put_u32 b m.f_ckpt;
    Codec.put_u32 b m.f_at

let decode_payload s =
  let pos = ref 0 in
  let tag = Codec.get_u32 s pos in
  let frame =
    match tag with
    | 0 ->
      let f_seq = Codec.get_u32 s pos in
      let f_at = Codec.get_u32 s pos in
      let f_index = Codec.get_u32 s pos in
      let f_kernel = Codec.get_str s pos in
      let f_target = Codec.get_u32 s pos in
      let f_scale = Codec.get_u32 s pos in
      Admit { f_seq; f_at; f_index; f_kernel; f_target; f_scale }
    | 1 ->
      let f_seq = Codec.get_u32 s pos in
      let f_flags = Codec.get_u32 s pos in
      Complete { f_seq; f_flags }
    | 2 ->
      let f_ckpt = Codec.get_u32 s pos in
      let f_at = Codec.get_u32 s pos in
      Mark { f_ckpt; f_at }
    | n -> raise (Codec.Malformed (Printf.sprintf "unknown frame tag %d" n))
  in
  if !pos <> String.length s then
    raise (Codec.Malformed "trailing bytes after frame payload");
  frame

(* One frame on the wire: u32 payload length, 16-byte MD5 of the
   payload, payload bytes.  A torn tail (truncated length, checksum, or
   payload) or a checksum mismatch is rejected, never skipped.
   [frame_into b] leaves exactly the frame's bytes in [b], so a journal
   reuses one buffer for every frame it writes. *)
let frame_into b fr =
  Buffer.clear b;
  add_payload b fr;
  let payload = Buffer.contents b in
  Buffer.clear b;
  Codec.put_u32 b (String.length payload);
  Buffer.add_string b (Md5.string payload);
  Buffer.add_string b payload

let encode_frame fr =
  let b = Buffer.create 64 in
  frame_into b fr;
  Buffer.contents b

let decode_frames s : (frame list, string) result =
  try
    let pos = ref 0 in
    let out = ref [] in
    while !pos < String.length s do
      let len = Codec.get_u32 s pos in
      if !pos + 16 > String.length s then
        raise (Codec.Malformed "truncated frame checksum");
      let sum = String.sub s !pos 16 in
      pos := !pos + 16;
      if !pos + len > String.length s then
        raise (Codec.Malformed "truncated frame payload");
      let payload = String.sub s !pos len in
      pos := !pos + len;
      if
        not
          (String.equal sum (Md5.string payload))
      then raise (Codec.Malformed "frame checksum mismatch");
      out := decode_payload payload :: !out
    done;
    Ok (List.rev !out)
  with Codec.Malformed m -> Error m

(* Segment header: magic + u32 version + u32 shard. *)
let encode_header ~shard =
  let b = Buffer.create 16 in
  Buffer.add_string b segment_magic;
  Codec.put_u32 b format_version;
  Codec.put_u32 b shard;
  Buffer.contents b

let decode_header s : (int * int, string) result =
  try
    let ml = String.length segment_magic in
    if String.length s < ml then raise (Codec.Malformed "truncated header");
    if not (String.equal (String.sub s 0 ml) segment_magic) then
      raise (Codec.Malformed "bad segment magic");
    let pos = ref ml in
    let version = Codec.get_u32 s pos in
    if version <> format_version then
      raise
        (Codec.Malformed (Printf.sprintf "unsupported version %d" version));
    let shard = Codec.get_u32 s pos in
    Ok (shard, !pos)
  with Codec.Malformed m -> Error m

(* --- checkpoint envelope ------------------------------------------------ *)

(* Digest-level shard state at a checkpoint: enough for an external
   observer (CI's artifact schema check, postmortems) to see what was
   resident and how hot it was, without carrying compiled bodies. *)
type checkpoint = {
  ck_shard : int;
  ck_ckpt : int;  (* checkpoint ordinal, 0 = initial *)
  ck_at : int;  (* virtual time taken *)
  ck_cache_rows : (string * string * string * int * int) list;
      (* digest, target, profile, bytes, tick *)
  ck_tier_rows : (string * string * string * int * bool) list;
      (* label, target, tier, invocations, quarantined *)
  ck_counters : (string * int) list;  (* selected registry counters *)
  ck_breaker_open : int;  (* digests open/half-open at the checkpoint *)
}

let encode_checkpoint ck =
  let b = Buffer.create 256 in
  Codec.put_u32 b ck.ck_shard;
  Codec.put_u32 b ck.ck_ckpt;
  Codec.put_u32 b ck.ck_at;
  Codec.put_u32 b (List.length ck.ck_cache_rows);
  List.iter
    (fun (d, t, p, bytes, tick) ->
      Codec.put_str b d;
      Codec.put_str b t;
      Codec.put_str b p;
      Codec.put_u32 b bytes;
      Codec.put_u32 b tick)
    ck.ck_cache_rows;
  Codec.put_u32 b (List.length ck.ck_tier_rows);
  List.iter
    (fun (l, t, tier, inv, q) ->
      Codec.put_str b l;
      Codec.put_str b t;
      Codec.put_str b tier;
      Codec.put_u32 b inv;
      Codec.put_u32 b (if q then 1 else 0))
    ck.ck_tier_rows;
  Codec.put_u32 b (List.length ck.ck_counters);
  List.iter
    (fun (n, v) ->
      Codec.put_str b n;
      Codec.put_u32 b v)
    ck.ck_counters;
  Codec.put_u32 b ck.ck_breaker_open;
  let payload = Buffer.contents b in
  let out = Buffer.create (String.length payload + 32) in
  Buffer.add_string out checkpoint_magic;
  Codec.put_u32 out format_version;
  Buffer.add_string out (Md5.string payload);
  Codec.put_u32 out (String.length payload);
  Buffer.add_string out payload;
  Buffer.contents out

let decode_checkpoint s : (checkpoint, string) result =
  try
    let ml = String.length checkpoint_magic in
    if String.length s < ml then raise (Codec.Malformed "truncated artifact");
    if not (String.equal (String.sub s 0 ml) checkpoint_magic) then
      raise (Codec.Malformed "bad checkpoint magic");
    let pos = ref ml in
    let version = Codec.get_u32 s pos in
    if version <> format_version then
      raise
        (Codec.Malformed (Printf.sprintf "unsupported version %d" version));
    if !pos + 16 > String.length s then
      raise (Codec.Malformed "truncated artifact checksum");
    let sum = String.sub s !pos 16 in
    pos := !pos + 16;
    let len = Codec.get_u32 s pos in
    if !pos + len > String.length s then
      raise (Codec.Malformed "truncated artifact payload");
    let payload = String.sub s !pos len in
    if !pos + len <> String.length s then
      raise (Codec.Malformed "trailing bytes after artifact payload");
    if
      not (String.equal sum (Md5.string payload))
    then raise (Codec.Malformed "artifact checksum mismatch");
    let pos = ref 0 in
    let ck_shard = Codec.get_u32 payload pos in
    let ck_ckpt = Codec.get_u32 payload pos in
    let ck_at = Codec.get_u32 payload pos in
    let n = Codec.get_u32 payload pos in
    let ck_cache_rows =
      List.init n (fun _ ->
          let d = Codec.get_str payload pos in
          let t = Codec.get_str payload pos in
          let p = Codec.get_str payload pos in
          let bytes = Codec.get_u32 payload pos in
          let tick = Codec.get_u32 payload pos in
          d, t, p, bytes, tick)
    in
    let n = Codec.get_u32 payload pos in
    let ck_tier_rows =
      List.init n (fun _ ->
          let l = Codec.get_str payload pos in
          let t = Codec.get_str payload pos in
          let tier = Codec.get_str payload pos in
          let inv = Codec.get_u32 payload pos in
          let q = Codec.get_u32 payload pos <> 0 in
          l, t, tier, inv, q)
    in
    let n = Codec.get_u32 payload pos in
    let ck_counters =
      List.init n (fun _ ->
          let name = Codec.get_str payload pos in
          let v = Codec.get_u32 payload pos in
          name, v)
    in
    let ck_breaker_open = Codec.get_u32 payload pos in
    Ok
      {
        ck_shard;
        ck_ckpt;
        ck_at;
        ck_cache_rows;
        ck_tier_rows;
        ck_counters;
        ck_breaker_open;
      }
  with Codec.Malformed m -> Error m

(* --- the per-shard journal ---------------------------------------------- *)

(* A completed event, as recovery replays it. *)
type entry = {
  je_event : Trace.event;
  je_seq : int;
  je_interp_only : bool;
  je_force_oracle : bool;
  je_real_compile : bool;
}

type t = {
  j_shard : int;
  j_dir : string option;
  (* completed events since the last checkpoint, newest first *)
  mutable j_completed : entry list;
  mutable j_bytes : int;  (* frame bytes in the active disk segment *)
  j_scratch : Buffer.t;  (* the frame being written *)
  mutable j_tmp_oc : out_channel option;  (* append channel to the .tmp *)
  (* latest checkpoint round not yet published to disk; the record is a
     thunk so superseded rounds never materialize their digest tables *)
  mutable j_pending_ck : (int * (unit -> checkpoint)) option;
  mutable j_segments : int;
  mutable j_admits : int;
  mutable j_completes : int;
}

(* Segments rotate by size, not per checkpoint round: checkpoint [Mark]s
   are ordinary frames inside a segment, and the segment (plus the
   artifact of the round that closed it) is published once the active
   body crosses this threshold.  Checkpoint rounds are frequent (every
   few thousand virtual cycles); publishing two files per round would
   dwarf the serving work itself, while size-based rotation amortizes
   the disk traffic to O(bytes journaled).  Each publication costs a
   handful of file-system operations (close, rename, create) whatever
   the segment's size, so the threshold is set where those stay a small
   share of the per-event journaling cost: at roughly 100 bytes of
   frames per event, one rotation per ~2,500 events. *)
let rotate_bytes = 262_144

let segment_tmp_path dir shard =
  Filename.concat dir (Printf.sprintf "shard-%d.vjl.tmp" shard)

let segment_path dir shard ckpt =
  Filename.concat dir (Printf.sprintf "shard-%d.ck%d.vjl" shard ckpt)

let artifact_path dir shard ckpt =
  Filename.concat dir (Printf.sprintf "shard-%d.ck%d.vckp" shard ckpt)

(* The active segment is written to [shard-N.vjl.tmp] write-ahead: each
   record is appended through a buffered channel, so the journal costs
   O(1) per record.  The .tmp suffix marks the file as possibly torn,
   exactly like the store's in-flight object writes (a torn tail is
   caught by the frame checksums anyway).  Rotation closes the finished
   segment and renames it to its final name, the same atomic publish as
   the store's write-temp + rename, so a published segment is never
   torn and its bytes are written once. *)
let open_tmp j =
  match j.j_dir with
  | None -> ()
  | Some dir ->
    let oc = open_out_bin (segment_tmp_path dir j.j_shard) in
    output_string oc (encode_header ~shard:j.j_shard);
    j.j_tmp_oc <- Some oc

let close_tmp j =
  match j.j_tmp_oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    j.j_tmp_oc <- None

let append_frame j fr =
  match j.j_tmp_oc with
  | None -> ()
  | Some oc ->
    frame_into j.j_scratch fr;
    Buffer.output_buffer oc j.j_scratch;
    j.j_bytes <- j.j_bytes + Buffer.length j.j_scratch

let create ?dir ~shard () =
  (match dir with Some d -> Store.mkdir_p d | None -> ());
  let j =
    {
      j_shard = shard;
      j_dir = dir;
      j_completed = [];
      j_bytes = 0;
      j_scratch = Buffer.create 64;
      j_tmp_oc = None;
      j_pending_ck = None;
      j_segments = 0;
      j_admits = 0;
      j_completes = 0;
    }
  in
  open_tmp j;
  j

let note_admit j ~at ~seq (ev : Trace.event) =
  j.j_admits <- j.j_admits + 1;
  if j.j_dir <> None then
    append_frame j
      (Admit
         {
           f_seq = seq;
           f_at = at;
           f_index = ev.Trace.ev_index;
           f_kernel = ev.Trace.ev_kernel;
           f_target = ev.Trace.ev_target;
           f_scale = ev.Trace.ev_scale;
         })

let note_complete j ~seq (ev : Trace.event) ~interp_only ~force_oracle
    ~real_compile =
  j.j_completes <- j.j_completes + 1;
  j.j_completed <-
    {
      je_event = ev;
      je_seq = seq;
      je_interp_only = interp_only;
      je_force_oracle = force_oracle;
      je_real_compile = real_compile;
    }
    :: j.j_completed;
  if j.j_dir <> None then begin
    let flags =
      (if interp_only then flag_interp_only else 0)
      lor (if force_oracle then flag_force_oracle else 0)
      lor if real_compile then flag_real_compile else 0
    in
    append_frame j (Complete { f_seq = seq; f_flags = flags })
  end

(* The replay suffix: completed events since the last checkpoint, oldest
   first. *)
let completed j = List.rev j.j_completed

(* Close the active segment and publish it under [path]. *)
let publish_tmp j dir path =
  close_tmp j;
  Sys.rename (segment_tmp_path dir j.j_shard) path;
  j.j_bytes <- 0;
  j.j_segments <- j.j_segments + 1

(* Rotate the active segment: publish it under the checkpoint-numbered
   final name, write the digest-level artifact of the round that closed
   it beside it (atomic write + rename), and start a new segment. *)
let rotate j dir ~ckpt =
  publish_tmp j dir (segment_path dir j.j_shard ckpt);
  (match j.j_pending_ck with
  | Some (n, ck) ->
    Store.write_file_atomic
      (artifact_path dir j.j_shard n)
      (encode_checkpoint (ck ()));
    j.j_pending_ck <- None
  | None -> ());
  open_tmp j

(* Checkpoint: truncate the in-memory suffix, close the round with a
   [Mark] frame, and rotate the disk segment once it has grown past the
   size threshold.  The artifact of the latest round is held pending
   until the segment publishes (or the journal finalizes). *)
let checkpoint j ~ckpt ~at (ck : unit -> checkpoint) =
  j.j_completed <- [];
  match j.j_dir with
  | None -> ()
  | Some dir ->
    append_frame j (Mark { f_ckpt = ckpt; f_at = at });
    j.j_pending_ck <- Some (ckpt, ck);
    if j.j_bytes >= rotate_bytes then rotate j dir ~ckpt

(* Read back and verify the artifact for [ckpt] — the recovery path's
   proof that what it would hand a cold restart is intact.  If the round
   hasn't rotated to disk yet, the pending in-memory artifact is pushed
   through the codec instead (same checksum, same rejection paths). *)
let verify_artifact j ~ckpt : (checkpoint, string) result =
  match j.j_dir with
  | None -> Ok { ck_shard = j.j_shard; ck_ckpt = ckpt; ck_at = 0;
                 ck_cache_rows = []; ck_tier_rows = []; ck_counters = [];
                 ck_breaker_open = 0 }
  | Some dir -> (
    match j.j_pending_ck with
    | Some (n, ck) when n = ckpt -> decode_checkpoint (encode_checkpoint (ck ()))
    | _ -> (
      let path = artifact_path dir j.j_shard ckpt in
      match
        try Ok (Store.read_file path) with Sys_error m -> Error m
      with
      | Error m -> Error m
      | Ok bytes -> decode_checkpoint bytes))

(* Drain: publish whatever the active segment holds under a final name,
   flush the pending checkpoint artifact, and remove the .tmp so nothing
   is left behind torn. *)
let finalize j =
  match j.j_dir with
  | None -> ()
  | Some dir ->
    if j.j_bytes > 0 then
      publish_tmp j dir
        (Filename.concat dir (Printf.sprintf "shard-%d.final.vjl" j.j_shard))
    else begin
      close_tmp j;
      try Sys.remove (segment_tmp_path dir j.j_shard) with Sys_error _ -> ()
    end;
    match j.j_pending_ck with
    | Some (n, ck) ->
      Store.write_file_atomic
        (artifact_path dir j.j_shard n)
        (encode_checkpoint (ck ()));
      j.j_pending_ck <- None
    | None -> ()

let admits j = j.j_admits
let completes j = j.j_completes
let segments j = j.j_segments

(* --- offline verification (vaporc journal verify, CI) ------------------- *)

type dir_summary = {
  ds_segments : int;
  ds_frames : int;
  ds_admits : int;
  ds_completes : int;
  ds_checkpoints : int;  (* artifacts verified *)
}

let verify_file path : (frame list, string) result =
  let bytes = try Ok (Store.read_file path) with Sys_error m -> Error m in
  match bytes with
  | Error m -> Error m
  | Ok s -> (
    match decode_header s with
    | Error m -> Error m
    | Ok (_shard, off) ->
      decode_frames (String.sub s off (String.length s - off)))

let verify_dir dir : (dir_summary, string) result =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "'%s' is not a directory" dir)
  else begin
    let files = Sys.readdir dir in
    Array.sort compare files;
    let summary =
      ref
        {
          ds_segments = 0;
          ds_frames = 0;
          ds_admits = 0;
          ds_completes = 0;
          ds_checkpoints = 0;
        }
    in
    let err = ref None in
    Array.iter
      (fun f ->
        if !err = None then
          let path = Filename.concat dir f in
          if Filename.check_suffix f ".vjl" then (
            match verify_file path with
            | Error m -> err := Some (Printf.sprintf "%s: %s" f m)
            | Ok frames ->
              let s = !summary in
              let admits, completes =
                List.fold_left
                  (fun (a, c) -> function
                    | Admit _ -> a + 1, c
                    | Complete _ -> a, c + 1
                    | Mark _ -> a, c)
                  (0, 0) frames
              in
              summary :=
                {
                  s with
                  ds_segments = s.ds_segments + 1;
                  ds_frames = s.ds_frames + List.length frames;
                  ds_admits = s.ds_admits + admits;
                  ds_completes = s.ds_completes + completes;
                })
          else if Filename.check_suffix f ".vckp" then (
            match
              match
                try Ok (Store.read_file path) with Sys_error m -> Error m
              with
              | Error m -> Error m
              | Ok bytes -> decode_checkpoint bytes
            with
            | Error m -> err := Some (Printf.sprintf "%s: %s" f m)
            | Ok _ ->
              summary :=
                { !summary with ds_checkpoints = !summary.ds_checkpoints + 1 }))
      files;
    match !err with Some m -> Error m | None -> Ok !summary
  end
