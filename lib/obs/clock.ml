(* Wall-clock source for the observability layer: the OS monotonic clock
   (CLOCK_MONOTONIC through bechamel's stub), in nanoseconds since an
   arbitrary origin.  It never steps backwards and resolves single
   nanoseconds, so span durations and stage timings are differences of
   two readings.  Deterministic trace mode drops wall fields entirely, so
   clock quality never affects byte-identity. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
