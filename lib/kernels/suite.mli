(** The paper's benchmark suite (Table 2): kernel sources, deterministic
    workload builders, and metadata. *)

open Vapor_ir

type entry = {
  name : string;
  source : string;  (** kernel-language source text *)
  features : string list;
  polybench : bool;
  in_table3 : bool;  (** part of the AVX/IACA experiment *)
  args : scale:int -> (string * Eval.arg) list;
      (** Builds the workload's arguments.  Contract: a pure function of
          [scale] — every call returns bit-identical contents (seeded
          generators, no global state) in freshly allocated buffers.
          The runtime relies on it twice: the batch dispatcher elides
          co-batched events of one (kernel, scale) signature, and each
          replay shard builds a signature's operands once and hands every
          event copies of them. *)
}

(** Parse and type-check an entry's kernel (cached). *)
val kernel : entry -> Kernel.t

val dsp_kernels : entry list
val polybench_kernels : entry list

(** Features beyond the paper's Table 2 (interleaved stores, select,
    dependence distance hints); excluded from the reproduced figures. *)
val extension_kernels : entry list

val all : entry list

(** @raise Invalid_argument on unknown names. *)
val find : string -> entry

val names : string list

(** The array arguments, in declaration order. *)
val arrays_of_args : (string * Eval.arg) list -> (string * Buffer_.t) list
