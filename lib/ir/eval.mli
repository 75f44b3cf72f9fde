(** Reference interpreter for the scalar IR: the semantic oracle that the
    bytecode evaluator and the machine simulator are tested against. *)

type arg =
  | Scalar of Value.t
  | Array of Buffer_.t

exception Runtime_error of string

(** Fresh argument list: every array buffer copied ({!Buffer_.copy}),
    scalars shared (values are immutable). *)
val copy_args : (string * arg) list -> (string * arg) list

(** Run a kernel with named arguments; array buffers are mutated in place.
    Returns the final scalar variable environment.
    @raise Runtime_error on missing/ill-kinded arguments or out-of-bounds
    accesses. *)
val run :
  Kernel.t -> args:(string * arg) list -> (string, Value.t) Hashtbl.t

(** [run] and return the final value of variable [result]. *)
val run_result :
  Kernel.t -> args:(string * arg) list -> result:string -> Value.t
