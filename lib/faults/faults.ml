(* Deterministic seeded fault injection.  See faults.mli for the contract.

   The site registry and the flush-callback list are written only during
   module initialization (which happens once, on the domain that loads
   the program) and read-only afterwards.  The armed state — which site
   is armed, with which seed, and how many hits it has seen — is
   domain-local: arming on one domain never makes another domain's
   solver misbehave, and a pool worker that arms a site per query gets a
   hit sequence that depends only on that query, not on what other
   workers are doing. *)

exception Injected_crash of string

type plane = Solver | Io

type site = { name : string; descr : string; plane : plane }

let registry : (string, site) Hashtbl.t = Hashtbl.create 16

let register ?(plane = Solver) ~name ~descr () =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
    let s = { name; descr; plane } in
    Hashtbl.add registry name s;
    s

let site_name s = s.name
let plane_name = function Solver -> "solver" | Io -> "io"

let all_sites () =
  Hashtbl.fold (fun name s acc -> (name, s.descr) :: acc) registry []
  |> List.sort compare

let list_sites () =
  Hashtbl.fold (fun name s acc -> (name, s.descr, s.plane) :: acc) registry []
  |> List.sort compare

let site_plane name =
  Option.map (fun s -> s.plane) (Hashtbl.find_opt registry name)

let find_site name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Faults: unknown site %S (known: %s)" name
         (String.concat ", " (List.map fst (all_sites ()))))

type armed_state = {
  target : site;
  seed : int;
  period : int;
  mutable hits : int;  (* hook invocations since the site was armed *)
  mutable fired : int;  (* how many of those actually fired *)
}

(* The armed site of the current domain, if any.  [fire] reads this ref
   once on the disabled path; everything else happens only while a site
   is armed. *)
let dls_state : armed_state option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let state () = Domain.DLS.get dls_state

(* Flush callbacks, newest first.  Registered at module-initialization
   time only; the callbacks themselves flush the *current* domain's
   solver caches. *)
let flushers : (unit -> unit) list ref = ref []
let on_flush f = flushers := f :: !flushers
let flush_caches () = List.iter (fun f -> f ()) !flushers

let arm ?(period = 13) ~site ~seed () =
  if period <= 0 then invalid_arg "Faults.arm: period must be positive";
  let target = find_site site in
  flush_caches ();
  state () := Some { target; seed; period; hits = 0; fired = 0 }

let disarm () =
  state () := None;
  flush_caches ()

let armed () =
  match !(state ()) with
  | None -> None
  | Some { target; seed; _ } -> Some (target.name, seed)

let parse_spec spec =
  let fail () =
    Error
      (Printf.sprintf "bad inject spec %S (expected SITE:SEED[:PERIOD])" spec)
  in
  match String.split_on_char ':' spec with
  | [ site; seed ] -> (
    match int_of_string_opt seed with
    | Some seed -> Ok (site, seed, 13)
    | None -> fail ())
  | [ site; seed; period ] -> (
    match (int_of_string_opt seed, int_of_string_opt period) with
    | Some seed, Some period when period > 0 -> Ok (site, seed, period)
    | _ -> fail ())
  | _ -> fail ()

let with_armed spec f =
  match spec with
  | None -> f ()
  | Some (site, seed, period) ->
    arm ~period ~site ~seed ();
    Fun.protect ~finally:disarm f

(* Whether hit [k] of the armed site fires depends only on (site name,
   seed, k): a multiplicative hash of the three, reduced mod the period.
   Different seeds therefore select different (roughly 1/period-density)
   subsets of the site's hit sequence. *)
let fires_at ~name ~seed k =
  let h = ref (String.length name * 0x01000193) in
  String.iter (fun c -> h := (!h * 0x01000193) lxor Char.code c) name;
  let h = (!h lxor (seed * 0x85ebca6b)) + (k * 0x9e3779b1) in
  let h = h lxor (h lsr 15) in
  h land max_int

let fire s =
  match !(state ()) with
  | None -> false
  | Some { target; _ } when target != s -> false
  | Some ({ target; seed; period; _ } as st) ->
    st.hits <- st.hits + 1;
    if fires_at ~name:target.name ~seed st.hits mod period = 0 then begin
      st.fired <- st.fired + 1;
      true
    end
    else false

let hash_fraction ~seed k =
  let h = fires_at ~name:"fraction" ~seed k in
  float_of_int (h land 0xFFFFFF) /. float_of_int 0x1000000

let fired_count ~site =
  let s = find_site site in
  match !(state ()) with
  | Some st when st.target == s -> st.fired
  | _ -> 0
