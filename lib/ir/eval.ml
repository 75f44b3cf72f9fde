(* Reference interpreter for the scalar IR.

   This is the semantic oracle for the whole project: the vectorized
   bytecode evaluator and the machine simulator must agree with it on every
   kernel of the suite. *)

type arg =
  | Scalar of Value.t
  | Array of Buffer_.t

exception Runtime_error of string

let copy_args args =
  List.map
    (fun (n, a) ->
      match a with
      | Scalar v -> n, Scalar v
      | Array b -> n, Array (Buffer_.copy b))
    args

let runtime_errorf fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type state = {
  vars : (string, Value.t) Hashtbl.t;
  arrays : (string, Buffer_.t) Hashtbl.t;
  env : Expr.env;
}

let lookup_var st v =
  match Hashtbl.find_opt st.vars v with
  | Some value -> value
  | None -> runtime_errorf "uninitialized variable %s" v

let lookup_array st a =
  match Hashtbl.find_opt st.arrays a with
  | Some buf -> buf
  | None -> runtime_errorf "unbound array %s" a

let rec eval_expr st (e : Expr.t) : Value.t =
  match e with
  | Expr.Int_lit (ty, v) -> Value.Int (Src_type.normalize_int ty v)
  | Expr.Float_lit (ty, v) -> Value.Float (Src_type.normalize_float ty v)
  | Expr.Var v -> lookup_var st v
  | Expr.Load (arr, idx) ->
    let buf = lookup_array st arr in
    let i = Value.to_int (eval_expr st idx) in
    if i < 0 || i >= Buffer_.length buf then
      runtime_errorf "out-of-bounds load %s[%d] (length %d)" arr i
        (Buffer_.length buf)
    else Buffer_.get buf i
  | Expr.Binop (op, a, b) ->
    let ty = Expr.type_of st.env e in
    let ty = if Op.is_comparison op then Expr.type_of st.env a else ty in
    Value.binop ty op (eval_expr st a) (eval_expr st b)
  | Expr.Unop (op, a) ->
    Value.unop (Expr.type_of st.env a) op (eval_expr st a)
  | Expr.Convert (ty, a) ->
    Value.convert ~from:(Expr.type_of st.env a) ~into:ty (eval_expr st a)
  | Expr.Select (c, a, b) ->
    if Value.is_true (eval_expr st c) then eval_expr st a else eval_expr st b

let rec exec_stmt st (s : Stmt.t) =
  match s with
  | Stmt.Assign (v, e) ->
    let ty = st.env.Expr.var_type v in
    Hashtbl.replace st.vars v (Value.normalize ty (eval_expr st e))
  | Stmt.Store (arr, idx, value) ->
    let buf = lookup_array st arr in
    let i = Value.to_int (eval_expr st idx) in
    if i < 0 || i >= Buffer_.length buf then
      runtime_errorf "out-of-bounds store %s[%d] (length %d)" arr i
        (Buffer_.length buf)
    else Buffer_.set buf i (eval_expr st value)
  | Stmt.For { index; lo; hi; body } ->
    let lo = Value.to_int (eval_expr st lo) in
    let hi = Value.to_int (eval_expr st hi) in
    for i = lo to hi - 1 do
      Hashtbl.replace st.vars index (Value.Int i);
      List.iter (exec_stmt st) body
    done
  | Stmt.If (c, t, e) ->
    if Value.is_true (eval_expr st c) then List.iter (exec_stmt st) t
    else List.iter (exec_stmt st) e

(* Run kernel [k] with the given arguments (positional by parameter name).
   Array buffers are mutated in place. *)
let run (k : Kernel.t) ~(args : (string * arg) list) =
  let st =
    {
      vars = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      env = Kernel.typing_env k;
    }
  in
  List.iter
    (fun p ->
      let name = Kernel.param_name p in
      match p, List.assoc_opt name args with
      | Kernel.P_scalar (_, ty), Some (Scalar v) ->
        Hashtbl.replace st.vars name (Value.normalize ty v)
      | Kernel.P_array (_, ty), Some (Array buf) ->
        if not (Src_type.equal ty buf.Buffer_.elem) then
          runtime_errorf "array %s has element type %s, expected %s" name
            (Src_type.to_string buf.Buffer_.elem)
            (Src_type.to_string ty)
        else Hashtbl.replace st.arrays name buf
      | Kernel.P_scalar _, Some (Array _) ->
        runtime_errorf "parameter %s expects a scalar" name
      | Kernel.P_array _, Some (Scalar _) ->
        runtime_errorf "parameter %s expects an array" name
      | _, None -> runtime_errorf "missing argument %s" name)
    k.Kernel.params;
  (* Locals start zero-initialized, as the frontend lowers declarations
     with initializers into leading assignments. *)
  List.iter
    (fun (v, ty) -> Hashtbl.replace st.vars v (Value.zero ty))
    k.Kernel.locals;
  List.iter (exec_stmt st) k.Kernel.body;
  st.vars

(* Convenience for tests: run and return the final value of a local. *)
let run_result k ~args ~result =
  let vars = run k ~args in
  match Hashtbl.find_opt vars result with
  | Some v -> v
  | None -> runtime_errorf "kernel %s has no variable %s" k.Kernel.name result
