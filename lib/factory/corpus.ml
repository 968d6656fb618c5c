(* Campaign driver: generated scenarios through the production query
   planes, every verdict compared against constructed ground truth. *)

type config = {
  jobs : int;
  budget : Engine.budget;
  vlevel : Validate.level;
  inject : (string * int * int) option;
  serve_sample : int;
}

(* The default per-query budget caps every axis: deterministic (no wall
   clock), generous for the queries the factory emits (which decide well
   under 5k steps), and tight enough that a sabotaged solver — the
   --inject self-test flips automaton bits on purpose — degrades to
   Unknown instead of exploring an exponentially corrupted state space. *)
let default_budget =
  Engine.budget ~max_steps:20_000 ~max_bdd_nodes:5_000_000
    ~max_states:50_000 ()

(* A sabotaged solver can corrupt its own search space into exploring
   far more work per abstract step than any clean run, so the
   deterministic axes alone bound injected queries too loosely.  The
   repo's fault campaign (test_validate) bounds every armed query by
   wall clock for exactly this reason; do the same here whenever
   injection is armed and the caller did not pick a timeout. *)
let sabotage_timeout = 5.

let harden cfg =
  if Option.is_none cfg.inject then cfg
  else
    match cfg.budget.Engine.timeout with
    | Some _ -> cfg
    | None ->
      { cfg with budget = { cfg.budget with Engine.timeout = Some sabotage_timeout } }

let default_config =
  {
    jobs = 1;
    budget = default_budget;
    vlevel = Validate.Witness;
    inject = None;
    serve_sample = 4;
  }

type disagreement = {
  d_index : int;
  d_scenario : Factory.scenario;
  d_detail : string;
}

type summary = {
  total : int;
  queries : int;
  agree : int;
  unknown : int;
  disagreements : disagreement list;
}

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

type plane = Race_primary | Race_sibling | Equiv

let plane_name = function
  | Race_primary -> "race"
  | Race_sibling -> "race(fused)"
  | Equiv -> "equiv"

type query = {
  q_scenario : int;  (** index into the campaign's scenario list *)
  q_plane : plane;
  q_expect : int;  (** expected exit code *)
}

let expected_race_code (sc : Factory.scenario) =
  match sc.Factory.sc_expect_race with `Free -> 0 | `Racy -> 1

(* Parse an emitted source through the real front end.  A failure here is
   itself a ground-truth disagreement (the factory asserts emitted
   sources are well-formed), reported rather than raised. *)
let load_source (src : string) : (Blocks.t, string) result =
  match Programs.load src with
  | info -> Ok info
  | exception Parser.Error e -> Error ("parse error: " ^ e)
  | exception Lexer.Error e -> Error ("lex error: " ^ e)
  | exception e -> Error ("ill-formed: " ^ Printexc.to_string e)

(* Build the flat task list for [Pool.run_batch]: one task per query,
   each re-arming the sabotage fault on its own domain, exactly like
   [retreet batch], and each returning its verdict line with the report
   ({!Validate.render_task} renders both planes alike).  Returns the
   descriptors, the thunks, and the disagreements found before solving
   (sources that failed the front end). *)
let build_tasks (cfg : config) (scenarios : Factory.scenario list) :
    query list
    * (Engine.budget -> (string * int) * Validate.report) list
    * disagreement list =
  let queries = ref [] and tasks = ref [] and early = ref [] in
  let push q task =
    queries := q :: !queries;
    tasks := (fun _slice -> Faults.with_armed cfg.inject task) :: !tasks
  in
  let race info () =
    let r, report =
      Validate.check_data_race ~level:cfg.vlevel ~budget:cfg.budget info
    in
    (Analysis.render_race r, report)
  in
  List.iteri
    (fun i (sc : Factory.scenario) ->
      let fail detail =
        early := { d_index = i; d_scenario = sc; d_detail = detail } :: !early
      in
      match load_source sc.Factory.sc_source with
      | Error e -> fail ("race: primary source " ^ e)
      | Ok info -> (
        push
          { q_scenario = i; q_plane = Race_primary;
            q_expect = expected_race_code sc }
          (race info);
        match sc.Factory.sc_sibling with
        | None -> ()
        | Some sib -> (
          match load_source sib with
          | Error e -> fail ("fused sibling " ^ e)
          | Ok sib_info ->
            (* the fused sibling is sequential: race-free by construction *)
            push
              { q_scenario = i; q_plane = Race_sibling; q_expect = 0 }
              (race sib_info);
            let map = sc.Factory.sc_map in
            let expect =
              match sc.Factory.sc_expect_equiv with
              | Some `Equivalent -> 0
              | Some `Conflict -> 1
              | None -> 0
            in
            push
              { q_scenario = i; q_plane = Equiv; q_expect = expect }
              (fun () ->
                let r, report =
                  Validate.check_equivalence ~level:cfg.vlevel
                    ~budget:cfg.budget info sib_info ~map
                in
                (Analysis.render_equiv r, report)))))
    scenarios;
  (List.rev !queries, List.rev !tasks, List.rev !early)

let classify (q : query) (text, code) : (unit, string option) result =
  if code = q.q_expect then Ok ()
  else if code = 3 then Error None (* unknown: budget ran out, not a bug *)
  else
    Error
      (Some
         (Fmt.str "%s: expected exit %d, got %d (%s)" (plane_name q.q_plane)
            q.q_expect code text))

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)

let scenario_label (sc : Factory.scenario) =
  Factory.kind_name sc.Factory.sc_kind
  ^ "_"
  ^ Factory.family_name sc.Factory.sc_family

let run_solver_plane (cfg : config) (scenarios : Factory.scenario list) =
  let queries, tasks, early = build_tasks cfg scenarios in
  let results = Pool.run_batch ~jobs:cfg.jobs tasks in
  let outcomes =
    List.map2 (fun q r -> (q, Validate.render_task Fun.id r)) queries results
  in
  (outcomes, early)

(* Byte-identity cross-check through the serve core: the daemon must
   render exactly the bytes the batch plane produced for the same
   source and options. *)
let run_serve_plane (cfg : config) (scenarios : Factory.scenario list)
    (batch_text : (int, string * int) Hashtbl.t) : disagreement list =
  if cfg.serve_sample <= 0 then []
  else begin
    let core = Serve.Core.create ~workers:1 ~cache_nodes:0 () in
    let options =
      {
        Serve.client = "corpus";
        budget = cfg.budget;
        vlevel = cfg.vlevel;
        inject = cfg.inject;
      }
    in
    let out = ref [] in
    List.iteri
      (fun i (sc : Factory.scenario) ->
        if i < cfg.serve_sample then begin
          match Hashtbl.find_opt batch_text i with
          | None -> () (* the batch plane already reported this scenario *)
          | Some (btext, bcode) ->
            let reply =
              Serve.Core.solve core ~options ~source:sc.Factory.sc_source
            in
            let stext = Serve.reply_text reply
            and scode = Serve.reply_code reply in
            if stext <> btext || scode <> bcode then
              out :=
                {
                  d_index = i;
                  d_scenario = sc;
                  d_detail =
                    Fmt.str
                      "serve: reply diverges from batch (batch %d %S, serve \
                       %d %S)"
                      bcode btext scode stext;
                }
                :: !out
        end)
      scenarios;
    ignore (Serve.Core.drain ~grace:5. core);
    List.rev !out
  end

let run_campaign (cfg : config) (scenarios : Factory.scenario list) : summary =
  let cfg = harden cfg in
  let outcomes, early = run_solver_plane cfg scenarios in
  let batch_text = Hashtbl.create 16 in
  List.iter
    (fun ((q : query), tc) ->
      if q.q_plane = Race_primary then Hashtbl.replace batch_text q.q_scenario tc)
    outcomes;
  let agree = ref 0 and unknown = ref 0 and disagreements = ref early in
  List.iter
    (fun ((q : query), tc) ->
      match classify q tc with
      | Ok () -> incr agree
      | Error None -> incr unknown
      | Error (Some detail) ->
        disagreements :=
          {
            d_index = q.q_scenario;
            d_scenario = List.nth scenarios q.q_scenario;
            d_detail = detail;
          }
          :: !disagreements)
    outcomes;
  let serve_disagreements = run_serve_plane cfg scenarios batch_text in
  {
    total = List.length scenarios;
    queries = List.length outcomes + min cfg.serve_sample (List.length scenarios);
    agree = !agree;
    unknown = !unknown;
    disagreements =
      List.sort
        (fun a b -> compare a.d_index b.d_index)
        (!disagreements @ serve_disagreements);
  }

let check_scenario (cfg : config) (sc : Factory.scenario) : string list =
  let cfg = { cfg with jobs = 1; serve_sample = 0 } in
  let s = run_campaign cfg [ sc ] in
  List.map (fun d -> d.d_detail) s.disagreements

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

let shrink (cfg : config) (d : disagreement) : Factory.scenario =
  let disagrees sc = check_scenario cfg sc <> [] in
  let rebuild shape =
    match Factory.build d.d_scenario.Factory.sc_kind shape with
    | sc -> Some sc
    | exception Invalid_argument _ -> None
  in
  let rec go (sc : Factory.scenario) =
    let candidates =
      List.filter_map rebuild (Factory.shrink_shape sc.Factory.sc_shape)
    in
    match List.find_opt disagrees candidates with
    | Some smaller -> go smaller
    | None -> sc
  in
  go d.d_scenario

(* ------------------------------------------------------------------ *)
(* On-disk corpus                                                      *)

(* The deterministic corpus basename, e.g. [0007_fuse_broken_css]. *)
let scenario_base i (sc : Factory.scenario) =
  Printf.sprintf "%04d_%s" i (scenario_label sc)

let write_file dir name contents =
  Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
      Out_channel.output_string oc contents)

let map_line (map : (string * string) list) =
  String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) map)

(* Everything a scenario lowers to on disk, as (name, contents). *)
let scenario_files base (sc : Factory.scenario) : (string * string) list =
  [ (base ^ ".retreet", sc.Factory.sc_source) ]
  @ (match sc.Factory.sc_sibling with
    | Some s -> [ (base ^ ".fused.retreet", s) ]
    | None -> [])
  @ (match sc.Factory.sc_map with
    | [] -> []
    | map -> [ (base ^ ".map", map_line map ^ "\n") ])
  @
  match sc.Factory.sc_css with
  | Some css -> [ (base ^ ".css", css) ]
  | None -> []

let prepare_out_dir dir =
  let is_dir = Sys.file_exists dir && Sys.is_directory dir in
  if Sys.file_exists dir && not is_dir then
    Error (dir ^ " exists and is not a directory")
  else if
    is_dir
    && Array.length (Sys.readdir dir) > 0
    && not (Sys.file_exists (Filename.concat dir "MANIFEST.tsv"))
  then
    Error
      (dir
     ^ " is non-empty and has no MANIFEST.tsv; refusing to write into a \
        directory gen did not produce")
  else begin
    if not is_dir then Unix.mkdir dir 0o755;
    Ok ()
  end

let expect_race_name = function `Free -> "race-free" | `Racy -> "racy"

let expect_equiv_name = function
  | Some `Equivalent -> "equivalent"
  | Some `Conflict -> "non-equivalent"
  | None -> "-"

let write_corpus ~dir (scenarios : Factory.scenario list) : string list =
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest
    "# name\tkind\tfamily\texpect_race\texpect_equiv\tfiles\n";
  let written =
    List.concat
      (List.mapi
         (fun i (sc : Factory.scenario) ->
           let base = scenario_base i sc in
           let files = scenario_files base sc in
           List.iter (fun (name, contents) -> write_file dir name contents) files;
           let names = List.map fst files in
           Buffer.add_string manifest
             (Printf.sprintf "%s\t%s\t%s\t%s\t%s\t%s\n" base
                (Factory.kind_name sc.Factory.sc_kind)
                (Factory.family_name sc.Factory.sc_family)
                (expect_race_name sc.Factory.sc_expect_race)
                (expect_equiv_name sc.Factory.sc_expect_equiv)
                (String.concat "," names));
           names)
         scenarios)
  in
  write_file dir "MANIFEST.tsv" (Buffer.contents manifest);
  written @ [ "MANIFEST.tsv" ]

let write_repro ~dir (sc : Factory.scenario) : string =
  let base = "repro_" ^ scenario_label sc in
  List.iter
    (fun (name, contents) -> write_file dir name contents)
    (scenario_files base sc);
  Filename.concat dir (base ^ ".retreet")

let pp_summary ppf (s : summary) =
  Fmt.pf ppf
    "corpus campaign: %d scenarios, %d queries: %d agree, %d unknown, %d \
     DISAGREE"
    s.total s.queries s.agree s.unknown
    (List.length s.disagreements);
  List.iter
    (fun d ->
      Fmt.pf ppf "@.  #%d %s: %s" d.d_index (scenario_label d.d_scenario)
        d.d_detail)
    s.disagreements
