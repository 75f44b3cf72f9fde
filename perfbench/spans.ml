(* Spans and self time.

   The benchmark records its own calls into the program (name, start,
   end) on the int64 monotonic clock; they stay in memory until a pass
   ends.  The program's own tracer is folded from its JSONL export into
   per-name totals and self time: a span's duration minus the part its
   child spans cover. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* The program's tracer stamps time with [gettimeofday] scaled to ns; at
   today's epoch a double's spacing there is 256 ns, so its spans shorter
   than this are counted as quantized. *)
let quantum_ns = 5_000.0

type total = {
  mutable t_ns : float;
  mutable t_self_ns : float;
  mutable t_count : int;
  mutable t_quantized : int;
}

type fold = (string, total) Hashtbl.t

let fold_create () : fold = Hashtbl.create 16

let entry (f : fold) name =
  match Hashtbl.find_opt f name with
  | Some t -> t
  | None ->
    let t = { t_ns = 0.0; t_self_ns = 0.0; t_count = 0; t_quantized = 0 } in
    Hashtbl.replace f name t;
    t

let add (f : fold) name ~dur ~self ~quantized =
  let t = entry f name in
  t.t_ns <- t.t_ns +. dur;
  t.t_self_ns <- t.t_self_ns +. self;
  t.t_count <- t.t_count + 1;
  if quantized then t.t_quantized <- t.t_quantized + 1

let total_ns f name = match Hashtbl.find_opt f name with Some t -> t.t_ns | None -> 0.0
let self_ns f name = match Hashtbl.find_opt f name with Some t -> t.t_self_ns | None -> 0.0
let count f name = match Hashtbl.find_opt f name with Some t -> t.t_count | None -> 0

let quantized f name =
  match Hashtbl.find_opt f name with Some t -> t.t_quantized | None -> 0

let names (f : fold) =
  Hashtbl.fold (fun k _ acc -> k :: acc) f [] |> List.sort String.compare

(* --- the benchmark's own spans ------------------------------------------ *)

(* A flat record of the benchmark's calls into the program: name, start
   and end of each, in call order. *)
type t = {
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable len : int;
}

let create () = { name = [||]; start = [||]; stop = [||]; len = 0 }

let clear t = t.len <- 0

let reserve t =
  if t.len = Array.length t.start then begin
    let cap = max 1024 (2 * t.len) in
    let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
    t.name <- ext t.name "";
    t.start <- ext t.start 0;
    t.stop <- ext t.stop 0
  end

let span t name f =
  reserve t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.start.(i) <- now ();
  match f () with
  | v ->
    t.stop.(i) <- now ();
    v
  | exception e ->
    t.stop.(i) <- now ();
    raise e

(* Every recorded call in order: its name and duration (ns). *)
let calls t =
  Array.init t.len (fun i -> t.name.(i), float_of_int (t.stop.(i) - t.start.(i)))

(* --- the program's tracer ----------------------------------------------- *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go from

let field_after line key =
  match find_sub line key 0 with
  | -1 -> None
  | i -> Some (i + String.length key)

(* Fold the tracer's wall-mode JSONL (B/E line pairs grouped into roots)
   into per-name totals.  Returns the summed duration of the roots. *)
let fold_jsonl (f : fold) jsonl =
  let stack = ref [] in
  let roots_ns = ref 0.0 in
  List.iter
    (fun line ->
      match
        ( field_after line "\"ph\":\"",
          field_after line "\"name\":\"",
          field_after line "\"wall_ns\":" )
      with
      | Some ph, Some nm, Some w ->
        let name = String.sub line nm (String.index_from line nm '"' - nm) in
        let stop =
          let rec upto j =
            if j < String.length line && line.[j] <> ',' && line.[j] <> '}'
            then upto (j + 1)
            else j
          in
          upto w
        in
        let ts = float_of_string (String.sub line w (stop - w)) in
        if line.[ph] = 'B' then stack := (name, ts, ref 0.0) :: !stack
        else begin
          match !stack with
          | (bname, b, child) :: rest ->
            let dur = ts -. b in
            add f bname ~dur ~self:(dur -. !child)
              ~quantized:(dur < quantum_ns);
            stack := rest;
            (match rest with
            | (_, _, pchild) :: _ -> pchild := !pchild +. dur
            | [] -> roots_ns := !roots_ns +. dur)
          | [] -> failwith "tracer export: end line without a begin"
        end
      | _ -> if line <> "" then failwith ("tracer export: unparsed line: " ^ line))
    (String.split_on_char '\n' jsonl);
  if !stack <> [] then failwith "tracer export: unbalanced spans";
  !roots_ns
