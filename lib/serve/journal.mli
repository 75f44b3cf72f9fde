(** Per-shard write-ahead admission journal and checkpoint artifacts.

    Every event admitted to a shard is journaled before dispatch; every
    completed event is journaled after execution together with its
    serving flags and the runtime's real-compile hint.  A checkpoint
    truncates the completed suffix (recovery never replays past a
    checkpoint) and, when a journal directory is configured, rotates the
    active on-disk segment atomically and writes a digest-level
    checkpoint artifact beside it.

    Disk formats reuse the persistent store's codec idiom
    ({!Vapor_store.Store.Codec}): [VAPORJNL] segments are a small header
    followed by length-prefixed, MD5-checksummed frames; [VAPORCKP]
    artifacts are one checksummed envelope.  A torn tail or a flipped
    bit is rejected as [Error], never silently skipped. *)

module Trace := Vapor_runtime.Trace

(** {2 Frames} *)

type frame =
  | Admit of {
      f_seq : int;  (** arrival's global sequence (trace order) *)
      f_at : int;  (** admission virtual time *)
      f_index : int;
      f_kernel : string;
      f_target : int;
      f_scale : int;
    }
  | Complete of {
      f_seq : int;
      f_flags : int;
    }
  | Mark of {
      f_ckpt : int;  (** checkpoint ordinal this segment closed at *)
      f_at : int;
    }

val flag_interp_only : int
val flag_force_oracle : int
val flag_real_compile : int

(** One frame on the wire: u32 payload length, raw MD5 of the payload,
    payload bytes. *)
val encode_frame : frame -> string

(** Decode a concatenation of frames (a segment body, after the header).
    Truncation anywhere — length word, checksum, payload — and checksum
    mismatches are [Error]. *)
val decode_frames : string -> (frame list, string) result

(** {2 Checkpoint artifacts} *)

type checkpoint = {
  ck_shard : int;
  ck_ckpt : int;  (** checkpoint ordinal, 0 = initial *)
  ck_at : int;  (** virtual time taken *)
  ck_cache_rows : (string * string * string * int * int) list;
      (** (digest, target, profile, bytes, tick), sorted *)
  ck_tier_rows : (string * string * string * int * bool) list;
      (** (label, target, tier, invocations, quarantined), sorted *)
  ck_counters : (string * int) list;  (** selected registry counters *)
  ck_breaker_open : int;  (** digests not Closed at the checkpoint *)
}

val encode_checkpoint : checkpoint -> string
val decode_checkpoint : string -> (checkpoint, string) result

(** {2 The per-shard journal} *)

(** A completed event as recovery replays it: the trace event plus the
    serving flags it originally executed under. *)
type entry = {
  je_event : Trace.event;
  je_seq : int;
  je_interp_only : bool;
  je_force_oracle : bool;
  je_real_compile : bool;
}

type t

(** [create ?dir ~shard ()] — with [dir], segments and artifacts are
    mirrored under it (created if missing); without, the journal is
    memory-only (recovery still works within the process). *)
val create : ?dir:string -> shard:int -> unit -> t

(** Record an admission, before dispatch. *)
val note_admit : t -> at:int -> seq:int -> Trace.event -> unit

(** Record a completed execution, with the flags it ran under. *)
val note_complete :
  t ->
  seq:int ->
  Trace.event ->
  interp_only:bool ->
  force_oracle:bool ->
  real_compile:bool ->
  unit

(** Completed events since the last checkpoint, oldest first — the
    recovery replay suffix. *)
val completed : t -> entry list

(** Truncate the replay suffix and close the round with a {!Mark}
    frame.  Segments rotate by size, not per round: once the active
    body crosses the rotation threshold (256 KiB) the segment file is
    closed and renamed to its checkpoint-numbered name, with the latest
    round's artifact beside it (atomic write + rename).  The artifact
    record is a thunk,
    forced only for rounds that actually publish (or that a recovery
    verifies) — superseded rounds cost nothing. *)
val checkpoint : t -> ckpt:int -> at:int -> (unit -> checkpoint) -> unit

(** Verify the artifact for [ckpt] — recovery's proof the checkpoint it
    restores from is intact.  A round already rotated to disk is read
    back and decoded; a still-pending round is pushed through the codec
    in memory (same checksum, same rejection paths).  Memory-only
    journals verify trivially. *)
val verify_artifact : t -> ckpt:int -> (checkpoint, string) result

(** Publish the active segment under a final name, flush the pending
    checkpoint artifact, and remove the torn-marker [.tmp]; call once
    at drain. *)
val finalize : t -> unit

val admits : t -> int
val completes : t -> int
val segments : t -> int

(** {2 Offline verification} ([vaporc journal verify], CI) *)

type dir_summary = {
  ds_segments : int;
  ds_frames : int;
  ds_admits : int;
  ds_completes : int;
  ds_checkpoints : int;
}

(** Decode one segment file: header check plus {!decode_frames}. *)
val verify_file : string -> (frame list, string) result

(** Verify every [.vjl] segment and [.vckp] artifact under [dir];
    first corruption wins. *)
val verify_dir : string -> (dir_summary, string) result
