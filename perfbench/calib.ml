(* Host speed.  The host runs this process up to 1.7x slower in spells
   lasting from a fraction of a second to minutes.  A calibration chunk
   is a fixed piece of work that shares nothing with the program: string
   hashing, table and balanced-tree lookups, string compares and buffer
   copies over 256 keys built at start-up.  It allocates nothing, so the
   program's heap does not change its time.  Of the chunks tried, this
   one tracked the program's pass times best through the spells (a tight
   integer loop over a 16 KiB table missed most of them).  Chunks are
   made between the benchmark's calls, and the best time of each is
   compared with its time on a reference host. *)

module Smap = Map.Make (String)

let keys =
  Array.init 256 (fun i -> Printf.sprintf "k%d-%x-%d" i (i * 7_919) (i * i))

let table = Hashtbl.create 512
let tree = ref Smap.empty

let () =
  Array.iteri
    (fun i k ->
      Hashtbl.replace table k i;
      tree := Smap.add k i !tree)
    keys

let buf = Buffer.create 65_536

let chunk () =
  let acc = ref 0 in
  Buffer.clear buf;
  for r = 0 to 2 do
    for i = 0 to 127 do
      let k = keys.((i * 37 + r * 11) land 255) in
      acc := !acc + Hashtbl.find table k + Smap.find k !tree;
      Buffer.add_string buf k;
      if String.contains k '-' then incr acc
    done
  done;
  ignore (Sys.opaque_identity (!acc + Buffer.length buf))

(* One chunk's wall time, ns. *)
let timed_chunk () =
  let t0 = Monotonic_clock.now () in
  chunk ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* A chunk's best time on the host the bounds in BENCHMARK.json were set
   on (a 2-vCPU Intel Xeon virtual machine at 2.1 GHz), ns. *)
let reference_ns = 65_000.0
