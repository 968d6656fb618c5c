(** Abstract syntax of the Retreet language (Figure 2 of the paper).

    Retreet programs execute on a tree-shaped heap.  Every function has a
    single [Loc] parameter, an optional vector of [Int] parameters, and a
    body built from code blocks combined with conditionals, sequencing and
    parallel composition.  Trees are binary with pointer fields [l] and [r]
    (the paper's standing assumption); location expressions are the [Loc]
    parameter followed by a path of child selectors. *)

type dir = L | R

let pp_dir ppf = function L -> Fmt.string ppf "l" | R -> Fmt.string ppf "r"

type lexpr = dir list
(** A location expression [n.d1.d2...]: the path from the function's [Loc]
    parameter.  The empty list is the parameter itself. *)

let pp_lexpr ppf (le : lexpr) =
  Fmt.string ppf "n";
  List.iter (fun d -> Fmt.pf ppf ".%a" pp_dir d) le

type aexpr =
  | Num of int
  | Var of string  (** an [Int] parameter or local variable *)
  | Field of lexpr * string  (** [n.path.f] *)
  | Add of aexpr * aexpr
  | Sub of aexpr * aexpr

(** Atomic boolean conditions.  The paper assumes every boolean expression
    is atomic ([LExpr == nil] or [AExpr > 0]); richer conditions are
    rewritten by the front end into nested conditionals. *)
type bexpr =
  | IsNilB of lexpr  (** [n.path == nil] *)
  | Gt0 of aexpr  (** [e > 0] *)
  | BTrue
  | NotB of bexpr

type assign =
  | SetField of lexpr * string * aexpr  (** [n.path.f = e] *)
  | SetVar of string * aexpr  (** [v = e] *)
  | Return of aexpr list  (** [return e1, ..., ek] *)

type call = {
  lhs : string list;  (** variables receiving the returned vector *)
  callee : string;
  target : lexpr;  (** the [Loc] argument *)
  args : aexpr list;  (** the [Int] arguments *)
}

(** A code block: the atomic unit of iteration. *)
type block =
  | Call of call
  | Straight of assign list  (** a maximal run of non-call assignments *)

(** Statements.  [label] carries an optional user block label ([sK:]) used
    to align blocks across program versions when checking equivalence. *)
type stmt =
  | SBlock of string option * block
  | SIf of bexpr * stmt * stmt
  | SSeq of stmt * stmt
  | SPar of stmt * stmt

type func = {
  fname : string;
  fline : int;
      (** source line of the definition; 0 for generated functions *)
  loc_param : string;  (** the single [Loc] parameter *)
  int_params : string list;
  body : stmt;
}

type prog = { funcs : func list }

let find_func prog name = List.find_opt (fun f -> f.fname = name) prog.funcs

let main_func prog =
  match find_func prog "Main" with
  | Some f -> f
  | None -> invalid_arg "Retreet program has no Main function"

(** Variables read by an arithmetic expression. *)
let rec aexpr_vars = function
  | Num _ -> []
  | Var x -> [ x ]
  | Field _ -> []
  | Add (a, b) | Sub (a, b) -> aexpr_vars a @ aexpr_vars b

(** Fields read by an arithmetic expression, as [(path, field)] pairs. *)
let rec aexpr_fields = function
  | Num _ | Var _ -> []
  | Field (le, f) -> [ (le, f) ]
  | Add (a, b) | Sub (a, b) -> aexpr_fields a @ aexpr_fields b

let rec bexpr_vars = function
  | IsNilB _ | BTrue -> []
  | Gt0 a -> aexpr_vars a
  | NotB b -> bexpr_vars b

let rec bexpr_fields = function
  | IsNilB _ | BTrue -> []
  | Gt0 a -> aexpr_fields a
  | NotB b -> bexpr_fields b
