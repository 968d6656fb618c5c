(** File-level interoperability with MONA, the WS2S solver the paper uses
    as its back end.

    This repository ships its own decision procedure, so MONA is not
    required; this module serializes the generated queries in MONA's WS2S
    concrete syntax, so a stock [mona] binary can solve them and the
    encoding can be inspected in a well-known exchange format. *)

val pp_formula : Format.formatter -> Mso.formula -> unit
(** One formula in MONA syntax (without the prologue). *)

val to_mona : Mso.env -> Mso.formula -> string
(** A complete [.mona] file: WS2S header, the nil-fringe convention
    ([$NIL], closed under successors — the paper's isNil axiom), the
    [reach] predicate, variable declarations, and the formula. *)

val write_mona : path:string -> Mso.env -> Mso.formula -> unit
