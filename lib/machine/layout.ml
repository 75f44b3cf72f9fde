(* Runtime memory layout: where the runtime places array arguments.

   The paper's JIT "can arrange for the arrays in question to be aligned";
   the placement policy models that, including the cases where it cannot
   (caller-supplied sub-buffers), which drive the versioning anomalies. *)

open Vapor_ir

type placement =
  | Aligned (* base on a 32-byte boundary (the JIT's allocator default) *)
  | Offset of int (* base displaced from a 32-byte boundary *)
  | Same_as of string (* aliases an earlier array (same base address) *)

type policy = string -> placement

let aligned_policy : policy = fun _ -> Aligned

type region = {
  base : int; (* byte address *)
  bytes : int;
  elem : Src_type.t;
}

type t = {
  mutable regions : (string * region) list;
  stack_base : int;
  total_bytes : int;
}

let default_stack_bytes = 4096
let slack = 64 (* padding after each array: floor loads may over-read *)

(* Compute the layout for a set of array arguments.  [stack_bytes] must
   cover the compiled function's spill area. *)
let plan ?(stack_bytes = default_stack_bytes) ~(policy : policy)
    (arrays : (string * Buffer_.t) list) : t =
  let cursor = ref 64 in
  let placed : (string * region) list ref = ref [] in
  let regions =
    List.map
      (fun (name, buf) ->
        let elem = buf.Buffer_.elem in
        let bytes = Buffer_.length buf * Src_type.size_of elem in
        (* Bases are 64-byte aligned (strictly stronger than the mod-32
           contract the hints promise) so 64-byte targets never fault on a
           provably-aligned access either. *)
        let aligned = (!cursor + 63) / 64 * 64 in
        let region =
          match policy name with
          | Aligned ->
            cursor := aligned + bytes + slack;
            { base = aligned; bytes; elem }
          | Offset k ->
            let base = aligned + (((k mod 32) + 32) mod 32) in
            cursor := base + bytes + slack;
            { base; bytes; elem }
          | Same_as other -> (
            match List.assoc_opt other !placed with
            | Some r -> { base = r.base; bytes; elem }
            | None ->
              invalid_arg
                (Printf.sprintf "Layout.plan: %s aliases unknown array %s"
                   name other))
        in
        placed := (name, region) :: !placed;
        name, region)
      arrays
  in
  let stack_base = (!cursor + 63) / 64 * 64 in
  { regions; stack_base; total_bytes = stack_base + stack_bytes }

let base_of t sym =
  if String.equal sym "$stack" then t.stack_base
  else
    match List.assoc_opt sym t.regions with
    | Some r -> r.base
    | None -> invalid_arg ("Layout.base_of: unknown symbol " ^ sym)

(* --- memory image ------------------------------------------------------ *)

let write_value mem ty addr (v : Value.t) =
  match ty with
  | Src_type.I8 | Src_type.U8 ->
    Bytes.set_uint8 mem addr (Value.to_int v land 0xff)
  | Src_type.I16 | Src_type.U16 ->
    Bytes.set_uint16_le mem addr (Value.to_int v land 0xffff)
  | Src_type.I32 | Src_type.U32 ->
    Bytes.set_int32_le mem addr (Int32.of_int (Value.to_int v))
  | Src_type.I64 -> Bytes.set_int64_le mem addr (Int64.of_int (Value.to_int v))
  | Src_type.F32 ->
    Bytes.set_int32_le mem addr (Int32.bits_of_float (Value.to_float v))
  | Src_type.F64 ->
    Bytes.set_int64_le mem addr (Int64.bits_of_float (Value.to_float v))

let read_value mem ty addr : Value.t =
  match ty with
  | Src_type.I8 ->
    Value.Int (Src_type.normalize_int Src_type.I8 (Bytes.get_uint8 mem addr))
  | Src_type.U8 -> Value.Int (Bytes.get_uint8 mem addr)
  | Src_type.I16 ->
    Value.Int
      (Src_type.normalize_int Src_type.I16 (Bytes.get_uint16_le mem addr))
  | Src_type.U16 -> Value.Int (Bytes.get_uint16_le mem addr)
  | Src_type.I32 -> Value.Int (Int32.to_int (Bytes.get_int32_le mem addr))
  | Src_type.U32 ->
    Value.Int (Int32.to_int (Bytes.get_int32_le mem addr) land 0xffffffff)
  | Src_type.I64 ->
    Value.Int (Src_type.normalize_int Src_type.I64
                 (Int64.to_int (Bytes.get_int64_le mem addr)))
  | Src_type.F32 ->
    Value.Float (Int32.float_of_bits (Bytes.get_int32_le mem addr))
  | Src_type.F64 ->
    Value.Float (Int64.float_of_bits (Bytes.get_int64_le mem addr))

(* Build the memory image, copying array arguments in.  The common
   representations copy with unboxed per-type loops; any other pairing
   (e.g. an int buffer materialized at a float element type) goes through
   the boxed [write_value] loop with identical results. *)
let materialize t (arrays : (string * Buffer_.t) list) : Bytes.t =
  let mem = Bytes.make t.total_bytes '\000' in
  List.iter
    (fun (name, buf) ->
      let r = List.assoc name t.regions in
      let base = r.base in
      match r.elem, buf.Buffer_.data with
      | Src_type.F32, Buffer_.Floats a ->
        for i = 0 to Array.length a - 1 do
          Bytes.set_int32_le mem (base + (i * 4)) (Int32.bits_of_float a.(i))
        done
      | Src_type.F64, Buffer_.Floats a ->
        for i = 0 to Array.length a - 1 do
          Bytes.set_int64_le mem (base + (i * 8)) (Int64.bits_of_float a.(i))
        done
      | (Src_type.I8 | Src_type.U8), Buffer_.Ints a ->
        for i = 0 to Array.length a - 1 do
          Bytes.set_uint8 mem (base + i) (a.(i) land 0xff)
        done
      | (Src_type.I16 | Src_type.U16), Buffer_.Ints a ->
        for i = 0 to Array.length a - 1 do
          Bytes.set_uint16_le mem (base + (i * 2)) (a.(i) land 0xffff)
        done
      | (Src_type.I32 | Src_type.U32), Buffer_.Ints a ->
        for i = 0 to Array.length a - 1 do
          Bytes.set_int32_le mem (base + (i * 4)) (Int32.of_int a.(i))
        done
      | Src_type.I64, Buffer_.Ints a ->
        for i = 0 to Array.length a - 1 do
          Bytes.set_int64_le mem (base + (i * 8)) (Int64.of_int a.(i))
        done
      | _ ->
        let esize = Src_type.size_of r.elem in
        for i = 0 to Buffer_.length buf - 1 do
          write_value mem r.elem (base + (i * esize)) (Buffer_.get buf i)
        done)
    arrays;
  mem

(* Copy memory contents back into the argument buffers after a run.  The
   unboxed loops require the region and buffer element types to agree
   (so [Buffer_.set]'s renormalization is the identity); otherwise the
   boxed loop preserves the exact conversion semantics. *)
let read_back t mem (arrays : (string * Buffer_.t) list) =
  List.iter
    (fun (name, buf) ->
      let r = List.assoc name t.regions in
      let base = r.base in
      let boxed () =
        let esize = Src_type.size_of r.elem in
        for i = 0 to Buffer_.length buf - 1 do
          Buffer_.set buf i (read_value mem r.elem (base + (i * esize)))
        done
      in
      if not (Src_type.equal r.elem buf.Buffer_.elem) then boxed ()
      else
        match r.elem, buf.Buffer_.data with
        | Src_type.F32, Buffer_.Floats a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Int32.float_of_bits (Bytes.get_int32_le mem (base + (i * 4)))
          done
        | Src_type.F64, Buffer_.Floats a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Int64.float_of_bits (Bytes.get_int64_le mem (base + (i * 8)))
          done
        | Src_type.I8, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Bytes.get_int8 mem (base + i)
          done
        | Src_type.U8, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Bytes.get_uint8 mem (base + i)
          done
        | Src_type.I16, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Bytes.get_int16_le mem (base + (i * 2))
          done
        | Src_type.U16, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Bytes.get_uint16_le mem (base + (i * 2))
          done
        | Src_type.I32, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Int32.to_int (Bytes.get_int32_le mem (base + (i * 4)))
          done
        | Src_type.U32, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <-
              Int32.to_int (Bytes.get_int32_le mem (base + (i * 4)))
              land 0xffffffff
          done
        | Src_type.I64, Buffer_.Ints a ->
          for i = 0 to Array.length a - 1 do
            a.(i) <- Int64.to_int (Bytes.get_int64_le mem (base + (i * 8)))
          done
        | _ -> boxed ())
    arrays
