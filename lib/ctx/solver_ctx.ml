(* Per-domain solver contexts.  See solver_ctx.mli for the contract. *)

exception Ownership_violation of string

(* Heterogeneous slots: the standard extensible-variant type-witness
   encoding (as in Hmap).  A slot carries a unique id, a type witness
   module, and its per-context initializer. *)

type (_, _) teq = Teq : ('a, 'a) teq

module Slot = struct
  type _ witness = ..

  module type Witness = sig
    type a
    type _ witness += W : a witness
  end

  type 'a slot = {
    uid : int;
    wit : (module Witness with type a = 'a);
    init : unit -> 'a;
  }

  let next_uid = Atomic.make 0

  let create (type s) init =
    let module M = struct
      type a = s
      type _ witness += W : a witness
    end in
    {
      uid = Atomic.fetch_and_add next_uid 1;
      wit = (module M : Witness with type a = s);
      init;
    }

  let teq : type a b.
      (module Witness with type a = a) ->
      (module Witness with type a = b) ->
      (a, b) teq option =
   fun (module A) (module B) ->
    match A.W with B.W -> Some Teq | _ -> None
end

type binding = B : 'a Slot.slot * 'a -> binding

type t = {
  ctx_id : int;
  ctx_owner : Domain.id;
  slots : (int, binding) Hashtbl.t;
}

let next_ctx_id = Atomic.make 0

let create () =
  {
    ctx_id = Atomic.fetch_and_add next_ctx_id 1;
    ctx_owner = Domain.self ();
    slots = Hashtbl.create 16;
  }

let created () = Atomic.get next_ctx_id

(* The fail-fast ownership check (see DESIGN.md, "Domain safety"): a
   context used on the wrong domain would race on its hash tables and
   corrupt memo state silently; raising here turns that latent bug class
   into an immediate, attributable error. *)
let check_owner ctx =
  let self = Domain.self () in
  if self <> ctx.ctx_owner then
    raise
      (Ownership_violation
         (Printf.sprintf
            "solver context #%d is owned by domain %d but was used on \
             domain %d"
            ctx.ctx_id
            (ctx.ctx_owner :> int)
            (self :> int)))

let get (type a) ctx (slot : a Slot.slot) : a =
  check_owner ctx;
  match Hashtbl.find_opt ctx.slots slot.Slot.uid with
  | Some (B (slot', v)) -> (
    match Slot.teq slot'.Slot.wit slot.Slot.wit with
    | Some Teq -> v
    | None -> assert false (* uids are unique per slot *))
  | None ->
    let v = slot.Slot.init () in
    Hashtbl.replace ctx.slots slot.Slot.uid (B (slot, v));
    v

(* Each domain's current context, defaulting to a root context owned by
   that domain — so code that never mentions contexts is still
   domain-safe: two domains get disjoint root state. *)
let dls_current : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () =
  let cell = Domain.DLS.get dls_current in
  match !cell with
  | Some ctx -> ctx
  | None ->
    let ctx = create () in
    cell := Some ctx;
    ctx

let with_ctx ctx f =
  check_owner ctx;
  let cell = Domain.DLS.get dls_current in
  let saved = !cell in
  cell := Some ctx;
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_fresh f = with_ctx (create ()) f

let get_current slot = get (current ()) slot
