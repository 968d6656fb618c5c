type state = int
type label = int list

type tree =
  | Leaf of label
  | Node of label * tree * tree

type t = {
  nstates : int;
  leaf : Mtbdd.t;
  delta : Mtbdd.t array array;
  accept : bool array;
}

(* Fault sites for the self-validation campaign (see lib/faults): when
   armed, [drop_transition] replaces a freshly computed pair transition by
   the leaf transition (the pair "forgets" its operands), and
   [swap_final] flips acceptance bits of the densely renumbered result.
   Both corruptions leave the automaton structurally well-formed. *)
let site_drop_transition =
  Faults.register ~name:"treeauto.drop_transition"
    ~descr:"replace a computed pair transition by the leaf transition" ()

let site_swap_final =
  Faults.register ~name:"treeauto.swap_final"
    ~descr:"flip an acceptance bit of a constructed automaton" ()

(* Observer invoked on every constructed automaton, tagged with the
   operation that produced it ("explore", "minimize", "project",
   "rename").  The validation layer installs structural checkers here;
   the default is a no-op so the production path pays one DLS read per
   construction.  The observer is domain-local: a validation layer
   observing on one domain never slows down (or races with) queries
   running on another. *)
let dls_observer : (string -> t -> unit) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (fun _ _ -> ()))

let set_observer f = Domain.DLS.get dls_observer := f
let clear_observer () = Domain.DLS.get dls_observer := fun _ _ -> ()

let observed stage a =
  !(Domain.DLS.get dls_observer) stage a;
  a

(* ------------------------------------------------------------------ *)
(* Labels and trees                                                    *)

let label_mem v (l : label) = List.mem v l

let label_of_bits bits =
  bits
  |> List.filter_map (fun (v, b) -> if b then Some v else None)
  |> List.sort_uniq Int.compare

let rho_of_label (l : label) v = label_mem v l

let rec pp_tree ppf = function
  | Leaf l -> Fmt.pf ppf "leaf%a" Fmt.(Dump.list int) l
  | Node (l, tl, tr) ->
    Fmt.pf ppf "@[<hv 2>node%a(@,%a,@ %a)@]" Fmt.(Dump.list int) l pp_tree tl
      pp_tree tr

let rec equal_tree a b =
  match (a, b) with
  | Leaf l1, Leaf l2 -> l1 = l2
  | Node (l1, a1, b1), Node (l2, a2, b2) ->
    l1 = l2 && equal_tree a1 a2 && equal_tree b1 b2
  | _ -> false

let tree_positions t =
  let rec go path acc t =
    let acc = (t, List.rev path) :: acc in
    match t with
    | Leaf _ -> acc
    | Node (_, tl, tr) -> go (1 :: path) (go (0 :: path) acc tl) tr
  in
  go [] [] t

(* ------------------------------------------------------------------ *)
(* Generic reachability-driven construction.

   States are arbitrary integer codes; [delta] is demanded only on pairs of
   codes that are bottom-up reachable, and the result is densely
   renumbered.  Every state of the result is realized by some tree. *)

let set_cell rows ~fill i j m =
  let row = rows.(i) in
  let row =
    if j < Array.length row then row
    else begin
      let r = Array.make (max 8 (2 * (j + 1))) fill in
      Array.blit row 0 r 0 (Array.length row);
      rows.(i) <- r;
      r
    end
  in
  row.(j) <- m

let explore ~(leaf : Mtbdd.t) ~(delta : int -> int -> Mtbdd.t)
    ~(accept : int -> bool) : t =
  (* Dense state k is the k-th code registered and the k-th processed;
     [rows.(i).(j)] is the transition of the dense pair (i, j). *)
  let code_of = Mtbdd.IdTbl.create 64 in
  let codes = ref (Array.make 16 0) and rows = ref (Array.make 16 [||]) in
  let ncodes = ref 0 in
  let register c =
    if not (Mtbdd.IdTbl.mem code_of c) then begin
      let k = !ncodes in
      if k = Array.length !codes then begin
        codes := Array.append !codes (Array.make k 0);
        rows := Array.append !rows (Array.make k [||])
      end;
      !codes.(k) <- c;
      Mtbdd.IdTbl.add code_of c k;
      incr ncodes;
      Engine.check_states !ncodes
    end
  in
  let scan = Mtbdd.terminal_scanner () in
  List.iter register (scan leaf);
  let transition i j =
    let m = delta !codes.(i) !codes.(j) in
    (* Fault site: forget the operand pair.  The leaf transition is
       always well-formed here (its terminals were registered first), so
       the corruption is semantic, not structural. *)
    let m = if Faults.fire site_drop_transition then leaf else m in
    set_cell !rows ~fill:leaf i j m;
    List.iter register (scan m)
  in
  (* Closure loop: process codes in discovery order; pair each new code
     with itself, then with every earlier code, latest first.  The order
     fixes which code is discovered when, and so the numbering. *)
  let k = ref 0 in
  while !k < !ncodes do
    Engine.tick ();
    let c = !k in
    transition c c;
    for d = c - 1 downto 0 do
      transition c d;
      transition d c
    done;
    incr k
  done;
  let n = !ncodes and codes = !codes and rows = !rows in
  let remap = Mtbdd.mapper (fun c -> Mtbdd.IdTbl.find code_of c) in
  let delta_arr =
    Array.init n (fun i -> Array.init n (fun j -> remap rows.(i).(j)))
  in
  observed "explore"
    {
      nstates = n;
      leaf = remap leaf;
      delta = delta_arr;
      accept =
        Array.init n (fun i ->
            let b = accept codes.(i) in
            if Faults.fire site_swap_final then not b else b);
    }

(* ------------------------------------------------------------------ *)
(* Explicit construction                                               *)

let mtbdd_of_cases cases =
  match List.rev cases with
  | [] -> invalid_arg "Treeauto.make: empty transition table"
  | (last_guard, last_state) :: rev_prefix ->
    if not (Bdd.is_top last_guard) then
      invalid_arg "Treeauto.make: final guard must be Bdd.top (completeness)";
    List.fold_left
      (fun acc (g, q) -> Mtbdd.ite g (Mtbdd.const q) acc)
      (Mtbdd.const last_state) rev_prefix

let make ~nstates ~leaf ~delta ~accept =
  if nstates <= 0 then invalid_arg "Treeauto.make: nstates must be positive";
  explore
    ~leaf:(mtbdd_of_cases leaf)
    ~delta:(fun q1 q2 -> mtbdd_of_cases (delta q1 q2))
    ~accept

let const b =
  make ~nstates:1
    ~leaf:[ (Bdd.top, 0) ]
    ~delta:(fun _ _ -> [ (Bdd.top, 0) ])
    ~accept:(fun _ -> b)

(* ------------------------------------------------------------------ *)
(* Boolean combinations via on-the-fly product                          *)

let product f a b =
  let nb = b.nstates in
  let code p q = (p * nb) + q in
  let pair = Mtbdd.combiner code in
  let leaf = pair a.leaf b.leaf in
  let delta c1 c2 =
    let p1 = c1 / nb and q1 = c1 mod nb in
    let p2 = c2 / nb and q2 = c2 mod nb in
    pair a.delta.(p1).(p2) b.delta.(q1).(q2)
  in
  let accept c = f a.accept.(c / nb) b.accept.(c mod nb) in
  explore ~leaf ~delta ~accept

(* Cumulative operation statistics, for performance diagnosis.  Kept in
   the current solver context so concurrent domains don't race on the
   counters (and fresh contexts start from zero). *)
let stats_slot : (string, float * int) Hashtbl.t Solver_ctx.Slot.slot =
  Solver_ctx.Slot.create (fun () -> Hashtbl.create 8)

let stats () = Solver_ctx.get_current stats_slot

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let stats = stats () in
  let acc, n = try Hashtbl.find stats name with Not_found -> (0., 0) in
  Hashtbl.replace stats name (acc +. dt, n + 1);
  r

let pp_op_stats ppf () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (stats ()) []
  |> List.sort compare
  |> List.iter (fun (k, (t, n)) -> Fmt.pf ppf "%s: %.4fs over %d calls@." k t n)

let inter a b = timed "inter" (fun () -> product ( && ) a b)
let union a b = timed "union" (fun () -> product ( || ) a b)
let complement a = { a with accept = Array.map not a.accept }

(* ------------------------------------------------------------------ *)
(* Minimization (Moore partition refinement)                            *)

let minimize a =
 observed "minimize"
 @@ timed "minimize"
 @@ fun () ->
  let n = a.nstates in
  if n <= 1 then a
  else begin
    let cls = Array.init n (fun q -> if a.accept.(q) then 1 else 0) in
    let nclasses = ref 2 in
    (* If all states agree on acceptance there is a single class. *)
    if Array.for_all (fun q -> q = cls.(0)) cls then begin
      Array.fill cls 0 n 0;
      nclasses := 1
    end;
    (* Number the distinct transition diagrams by first occurrence in
       the order q = 0..n-1, q2 = 0..n-1, delta(q2,q) before delta(q,q2)
       (cells with q2 < q occurred in an earlier row).  Each round maps
       the distinct diagrams in that order, which builds the same nodes
       in the same order as mapping every cell in it.  [out.(q).(q2)]
       numbers delta(q,q2) and [into.(q).(q2)] delta(q2,q). *)
    let number = Mtbdd.IdTbl.create 256 in
    let diagrams = ref [] and ndiagrams = ref 0 in
    let index m =
      let i = Mtbdd.hash m in
      match Mtbdd.IdTbl.find_opt number i with
      | Some u -> u
      | None ->
        let u = !ndiagrams in
        Mtbdd.IdTbl.add number i u;
        diagrams := m :: !diagrams;
        incr ndiagrams;
        u
    in
    let out = Array.make_matrix n n 0 and into = Array.make_matrix n n 0 in
    for q = 0 to n - 1 do
      for q2 = q to n - 1 do
        let u = index a.delta.(q2).(q) in
        into.(q).(q2) <- u;
        out.(q2).(q) <- u;
        let u = index a.delta.(q).(q2) in
        out.(q).(q2) <- u;
        into.(q2).(q) <- u
      done
    done;
    let diagrams = Array.of_list (List.rev !diagrams) in
    let changed = ref true in
    while !changed do
      Engine.tick ();
      changed := false;
      (* Map the transitions through the current class assignment,
         memoized by diagram node for this iteration. *)
      let map_cls = Mtbdd.mapper (fun q -> cls.(q)) in
      let mapped = Array.map (fun m -> Mtbdd.hash (map_cls m)) diagrams in
      (* Signature of q: its class, then for every q2 the mapped
         transitions of (q, q2) and (q2, q).  States are grouped by a hash
         of the whole signature and compared entry by entry; a state
         joins the class of the first equal one, else opens the next. *)
      let hash q =
        let out = out.(q) and into = into.(q) in
        let h = ref cls.(q) in
        for q2 = 0 to n - 1 do
          h := (((!h * 31) + mapped.(out.(q2))) * 31) + mapped.(into.(q2))
        done;
        !h
      in
      let same q r =
        let rec go q2 =
          q2 = n
          || mapped.(out.(q).(q2)) = mapped.(out.(r).(q2))
             && mapped.(into.(q).(q2)) = mapped.(into.(r).(q2))
             && go (q2 + 1)
        in
        cls.(q) = cls.(r) && go 0
      in
      let groups = Mtbdd.IdTbl.create 64 in
      let next = Array.make n 0 in
      let count = ref 0 in
      for q = 0 to n - 1 do
        let h = hash q in
        let group = Option.value (Mtbdd.IdTbl.find_opt groups h) ~default:[] in
        match List.find_opt (same q) group with
        | Some r -> next.(q) <- next.(r)
        | None ->
          Mtbdd.IdTbl.replace groups h (q :: group);
          next.(q) <- !count;
          incr count
      done;
      if !count <> !nclasses then begin
        changed := true;
        nclasses := !count
      end;
      Array.blit next 0 cls 0 n
    done;
    let k = !nclasses in
    if k = n then a
    else begin
      let rep = Array.make k (-1) in
      for q = n - 1 downto 0 do
        rep.(cls.(q)) <- q
      done;
      let remap = Mtbdd.mapper (fun q -> cls.(q)) in
      {
        nstates = k;
        leaf = remap a.leaf;
        delta =
          Array.init k (fun c1 ->
              Array.init k (fun c2 -> remap a.delta.(rep.(c1)).(rep.(c2))));
        accept = Array.init k (fun c -> a.accept.(rep.(c)));
      }
    end
  end

(* Combine many automata with a smallest-first strategy: repeatedly merge
   the two smallest operands.  Balanced merging keeps intermediate
   products small — a single large accumulator meeting every further
   constraint is the main blow-up mode for big conjunctions. *)
let balanced op neutral autos =
  let module H = struct
    let insert l a = List.sort (fun x y -> Int.compare x.nstates y.nstates) (a :: l)
  end in
  match autos with
  | [] -> neutral
  | [ a ] -> a
  | _ ->
    let rec go = function
      | [] -> neutral
      | [ a ] -> a
      | a :: b :: rest -> go (H.insert rest (minimize (op a b)))
    in
    go (List.sort (fun x y -> Int.compare x.nstates y.nstates) autos)

let inter_list autos =
  (* short-circuit once some operand is already empty *)
  if List.exists (fun a -> not (Array.exists Fun.id a.accept)) autos then
    const false
  else balanced inter (const true) autos

let union_list autos = balanced union (const false) autos

(* ------------------------------------------------------------------ *)
(* Projection (existential quantification of one track)                 *)

(* State sets are sorted lists, hashed whole. *)
module Set_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash (l : t) = List.fold_left (fun h x -> (h * 31) + x) 0 l
end)

let project v a =
 (* [minimize] times itself, so it runs outside the "project" region:
    its time is counted once *)
 let result = timed "project" @@ fun () ->
  (* State sets are hash-consed into integer codes: [sets.(c)] is the set
     of code [c]. *)
  let set_ids = Set_tbl.create 64 in
  let sets = ref (Array.make 64 []) in
  let nsets = ref 0 in
  let set_code s =
    match Set_tbl.find_opt set_ids s with
    | Some c -> c
    | None ->
      let c = !nsets in
      if c = Array.length !sets then
        sets := Array.append !sets (Array.make c []);
      !sets.(c) <- s;
      incr nsets;
      Set_tbl.add set_ids s c;
      c
  in
  let set_of c = !sets.(c) in
  (* Union is commutative, so one entry serves both operand orders. *)
  let unions = Mtbdd.Memo2.create 64 in
  let union_codes c1 c2 =
    if c1 = c2 then c1
    else begin
      let key = (min c1 c2, max c1 c2) in
      match Mtbdd.Memo2.find_opt unions key with
      | Some c -> c
      | None ->
        let c =
          set_code
            (List.sort_uniq Int.compare
               (List.rev_append (set_of c1) (set_of c2)))
        in
        Mtbdd.Memo2.add unions key c;
        c
    end
  in
  let singleton q = set_code [ q ] in
  let union_sets = Mtbdd.combiner union_codes in
  let as_singletons = Mtbdd.mapper singleton in
  let cofactor_false = Mtbdd.restricter v false
  and cofactor_true = Mtbdd.restricter v true in
  (* Erase track [v]: the two cofactors become a nondeterministic choice.
     The true cofactor is taken first; set codes are numbered in that
     order. *)
  let erase m =
    let hi = as_singletons (cofactor_true m) in
    let lo = as_singletons (cofactor_false m) in
    union_sets lo hi
  in
  let leaf = erase a.leaf in
  let erased_pairs = Array.make_matrix a.nstates a.nstates None in
  let erased q1 q2 =
    match erased_pairs.(q1).(q2) with
    | Some m -> m
    | None ->
      let m = erase a.delta.(q1).(q2) in
      erased_pairs.(q1).(q2) <- Some m;
      m
  in
  let bottom = set_code [] in
  let delta c1 c2 =
    let s1 = set_of c1 and s2 = set_of c2 in
    List.fold_left
      (fun acc q1 ->
        List.fold_left
          (fun acc q2 -> union_sets acc (erased q1 q2))
          acc s2)
      (Mtbdd.const bottom) s1
  in
  let accept c = List.exists (fun q -> a.accept.(q)) (set_of c) in
  explore ~leaf ~delta ~accept
 in
 observed "project" (minimize result)

(* ------------------------------------------------------------------ *)
(* Track renaming                                                       *)

(* Every kernel above compares tracks only by their order, so renaming
   the tracks of an automaton by a strictly increasing map gives, node
   for node, the automaton the same construction builds over the renamed
   tracks. *)
let rename f a =
  observed "rename" @@ timed "rename"
  @@ fun () ->
  let r = Mtbdd.renamer f in
  let leaf = r a.leaf in
  { a with leaf; delta = Array.map (Array.map r) a.delta }

(* ------------------------------------------------------------------ *)
(* Decision procedures                                                  *)

let complete_label bits = label_of_bits bits

let witness a =
  let n = a.nstates in
  let wit : tree option array = Array.make n None in
  List.iter
    (fun q ->
      match Mtbdd.find_terminal a.leaf q with
      | Some bits -> wit.(q) <- Some (Leaf (complete_label bits))
      | None -> ())
    (Mtbdd.terminals a.leaf);
  (* Round-based closure so the first witness found has minimal height. *)
  let have_accepting_witness () =
    Array.exists2 (fun acc w -> acc && w <> None) a.accept wit
  in
  let changed = ref true in
  while !changed && not (have_accepting_witness ()) do
    Engine.tick ();
    changed := false;
    let snapshot = Array.copy wit in
    for q1 = 0 to n - 1 do
      for q2 = 0 to n - 1 do
        match (snapshot.(q1), snapshot.(q2)) with
        | Some w1, Some w2 ->
          List.iter
            (fun q ->
              if wit.(q) = None then
                match Mtbdd.find_terminal a.delta.(q1).(q2) q with
                | Some bits ->
                  wit.(q) <- Some (Node (complete_label bits, w1, w2));
                  changed := true
                | None -> ())
            (Mtbdd.terminals a.delta.(q1).(q2))
        | _ -> ()
      done
    done
  done;
  let rec find q =
    if q >= n then None
    else if a.accept.(q) then
      match wit.(q) with Some w -> Some w | None -> find (q + 1)
    else find (q + 1)
  in
  find 0

let run a tree =
  let rec go = function
    | Leaf l -> Mtbdd.eval (rho_of_label l) a.leaf
    | Node (l, tl, tr) ->
      let ql = go tl and qr = go tr in
      Mtbdd.eval (rho_of_label l) a.delta.(ql).(qr)
  in
  go tree

let accepts a tree = a.accept.(run a tree)
let size a = a.nstates
