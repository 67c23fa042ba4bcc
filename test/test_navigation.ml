(* Differential tests of the local dependency-graph navigation: [deps]
   ({!Gkbms.Depgraph.pp}) and [focus] ({!Gkbms.Navigation.focus}) walk
   outward from the focus over the KB's by-dest index and the decision
   log index; their output must equal the whole-graph / full-log
   references kept here, on every node of a grown history, after
   backtracking and aborts, on random revise/retract sequences and under
   every store backend. *)

open Kernel
module Repo = Gkbms.Repository
module Dec = Gkbms.Decision
module Nav = Gkbms.Navigation
module Dg = Gkbms.Depgraph
module Bt = Gkbms.Backtrack
module Scn = Gkbms.Scenario
module Meta = Gkbms.Metamodel
module G = Kbgraph.Digraph

let sym = Symbol.intern

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* references -------------------------------------------------------------- *)

(* the full-log filter [focus] used before: every logged decision whose
   inputs include the object, in log order (inputs read once per check) *)
let reference_consumers repo =
  let inputs =
    List.map (fun d -> (d, Dec.inputs_of repo d)) (Repo.decision_log repo)
  in
  fun obj ->
    List.filter_map
      (fun (d, ins) ->
        if List.exists (fun (_, i) -> Symbol.equal i obj) ins then Some d
        else None)
      inputs

(* the whole-graph rendering [deps] used before *)
let reference_deps g n =
  Format.asprintf "%t" (fun ppf ->
      if G.mem_node g n then G.pp_ascii_dag ~max_depth:8 g ppf n
      else
        Format.fprintf ppf "%s (not in the dependency graph)@."
          (Symbol.name n))

(* the focus view with its downstream direction taken from the full-log
   reference; the other directions do not read the log *)
let reference_focus consumers repo n =
  let view = Nav.focus repo n in
  let others =
    List.filter
      (function Nav.Process_downstream _ -> false | _ -> true)
      view.Nav.directions
  in
  let before, after =
    List.partition
      (function Nav.Status _ | Nav.Process_upstream _ -> true | _ -> false)
      others
  in
  let downstream =
    match consumers n with [] -> [] | ds -> [ Nav.Process_downstream ds ]
  in
  { view with Nav.directions = before @ downstream @ after }

let render_focus view = Format.asprintf "%a" Nav.pp_focus view
let names ids = String.concat ", " (List.map Symbol.name ids)

let sorted_edges es =
  List.sort_uniq compare es
  |> List.map (fun (l, n) -> Symbol.name l ^ ">" ^ Symbol.name n)
  |> String.concat " "

(* every design object, every node of the whole graph (logged decisions,
   their inputs and outputs, tools), plus nodes that must stay out of
   it: a source text, a decision class, a name the KB never saw *)
let probe_nodes repo g extra =
  List.sort_uniq Symbol.compare
    (Repo.all_design_objects repo @ G.nodes g @ Repo.decision_log repo
    @ [ sym "Editor"; sym "Doc0!src"; sym Meta.dec_manual_edit;
        sym "NoSuchNode" ]
    @ extra)

let first_mismatch what n ~expected ~got =
  Alcotest.failf "%s %s differs@.expected:@.%s@.got:@.%s" what
    (Symbol.name n) expected got

let check_local_equals_reference ?(extra = []) repo =
  let g = Dg.build repo in
  let consumers = reference_consumers repo in
  let nodes = probe_nodes repo g extra in
  List.iter
    (fun n ->
      let expected = reference_deps g n and got = Format.asprintf "%a" (Dg.pp repo) n in
      if expected <> got then first_mismatch "deps" n ~expected ~got;
      if G.mem_node g n <> Dg.in_graph repo n then
        Alcotest.failf "in_graph %s: expected %b" (Symbol.name n) (G.mem_node g n);
      let expected = sorted_edges (G.succ g n)
      and got = sorted_edges (Dg.successors repo n) in
      if expected <> got then first_mismatch "successors of" n ~expected ~got;
      let expected = names (consumers n)
      and got = names (Dec.consumers repo n) in
      if expected <> got then first_mismatch "consumers of" n ~expected ~got;
      let expected = render_focus (reference_focus consumers repo n)
      and got = render_focus (Nav.focus repo n) in
      if expected <> got then first_mismatch "focus" n ~expected ~got)
    nodes;
  List.length nodes

(* histories ------------------------------------------------------------- *)

let docs = 6

(* the full fig 2-1 .. 2-4 storyline (mapping, normalization, keys,
   minutes, conflict, retraction), plus editable documents *)
let storyline () =
  let st, _report = ok (Scn.run_all ()) in
  let repo = st.Scn.repo in
  for i = 0 to docs - 1 do
    ignore
      (ok
         (Repo.new_object repo
            ~name:(Printf.sprintf "Doc%d" i)
            ~cls:Meta.dbpl_object (Repo.Text "v0")))
  done;
  repo

let revise repo obj text =
  Dec.execute repo ~decision_class:Meta.dec_manual_edit ~tool:"Editor"
    ~inputs:[ ("object", obj) ] ~params:[ ("text", text) ] ()

(* every version of one document, oldest first *)
let versions repo i = Gkbms.Version.version_chain repo (sym (Printf.sprintf "Doc%d" i))

(* [n] revisions: mostly of a chain's tip, sometimes of an older
   version, which branches the chain and gives that version a second
   consumer *)
let grow repo rng n =
  for k = 1 to n do
    let chain = versions repo (Random.State.int rng docs) in
    let target =
      if Random.State.int rng 5 = 0 then
        List.nth chain (Random.State.int rng (List.length chain))
      else List.nth chain (List.length chain - 1)
    in
    ignore (ok (revise repo target (Printf.sprintf "r%d" k)))
  done

let with_backend backend f =
  let restore =
    match
      Option.map Store.Base.backend_of_string (Sys.getenv_opt "GKBMS_STORE")
    with
    | Some (Ok b) -> b
    | _ -> `Mem
  in
  Store.Base.set_default_backend backend;
  Fun.protect ~finally:(fun () -> Store.Base.set_default_backend restore) f

(* a grown history, then a retraction of a mid-history revision with its
   consequences, then an aborted decision: the local walks must match
   the references at each point.  The log stores answer every index
   lookup with a scan of the whole log, so they grow a shorter history
   to keep the suite quick. *)
let grown_history_on backend ~revisions () =
  with_backend backend @@ fun () ->
  let rng = Random.State.make [| 14 |] in
  let repo = storyline () in
  grow repo rng revisions;
  let probed = check_local_equals_reference repo in
  Alcotest.(check bool) "probed every revision" true (probed > 2 * revisions);
  let retracted =
    (* a revision of a document, so its consequences are a chain suffix *)
    List.find
      (fun d -> Dec.decision_class_of repo d = Some Meta.dec_manual_edit)
      (List.filteri
         (fun i _ -> i >= revisions / 2)
         (Repo.decision_log repo))
  in
  let report = ok (Bt.retract repo retracted ()) in
  Alcotest.(check bool) "retracted a closure" true
    (report.Bt.retracted_decisions <> []);
  ignore (check_local_equals_reference ~extra:[ retracted ] repo);
  (* no text: the editor fails after the decision began *)
  (match
     Dec.execute repo ~decision_class:Meta.dec_manual_edit ~tool:"Editor"
       ~inputs:[ ("object", sym "Doc1") ] ()
   with
  | Ok _ -> Alcotest.fail "a run without text must abort"
  | Error _ -> ());
  ignore (check_local_equals_reference ~extra:[ retracted ] repo)

(* the local consumer scan keeps the log order even when a consumer's
   link arrives after later decisions' links (an object revised twice,
   by decisions in log order) *)
let test_consumers_log_order () =
  let repo = storyline () in
  let d1 = (ok (revise repo (sym "Doc0") "a")).Dec.decision in
  let d2 = (ok (revise repo (sym "Doc0") "b")).Dec.decision in
  let d3 = (ok (revise repo (sym "Doc0") "c")).Dec.decision in
  Alcotest.(check string) "log order" (names [ d1; d2; d3 ])
    (names (Dec.consumers repo (sym "Doc0")));
  ignore (ok (Bt.retract repo d2 ()));
  (* the retraction is itself a decision, anchored on the surviving
     input of the retracted one *)
  let retraction = List.hd (List.rev (Repo.decision_log repo)) in
  Alcotest.(check string) "retracted consumer gone, retraction consumes"
    (names [ d1; d3; retraction ])
    (names (Dec.consumers repo (sym "Doc0")));
  Alcotest.(check string) "tools consume nothing" ""
    (names (Dec.consumers repo (sym "Editor")))

(* random revise/retract sequences --------------------------------------- *)

type step = Revise of int * int | Retract of int

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 4 24)
      (frequency
         [
           (4, map2 (fun d v -> Revise (d, v)) (int_bound (docs - 1)) (int_bound 8));
           (1, map (fun k -> Retract k) (int_bound 1000));
         ]))

let print_step = function
  | Revise (d, v) -> Printf.sprintf "revise Doc%d@%d" d v
  | Retract k -> Printf.sprintf "retract #%d" k

let prop_random_steps =
  QCheck.Test.make ~name:"local deps/focus = references after random steps"
    ~count:20
    (QCheck.make ~print:QCheck.Print.(list print_step) gen_steps)
    (fun steps ->
      let repo = storyline () in
      List.iteri
        (fun k step ->
          match step with
          | Revise (d, v) ->
            let chain = versions repo d in
            let target = List.nth chain (min v (List.length chain - 1)) in
            ignore (ok (revise repo target (Printf.sprintf "s%d" k)))
          | Retract i ->
            let log = Repo.decision_log repo in
            let dec = List.nth log (i mod List.length log) in
            (* a retraction may be refused (e.g. it would orphan a
               document the storyline needs); a refusal changes nothing *)
            ignore (Bt.retract repo dec ()))
        steps;
      ignore (check_local_equals_reference repo);
      true)

let suite =
  [
    ("consumers keep log order", `Quick, test_consumers_log_order);
    ("grown history, mem store", `Quick, grown_history_on `Mem ~revisions:300);
    ("grown history, arena store", `Quick,
     grown_history_on `Arena ~revisions:300);
    ("grown history, log store", `Quick, grown_history_on `Log ~revisions:20);
    ("grown history, uncompacted log store", `Quick,
     grown_history_on `Log_nocompact ~revisions:20);
    QCheck_alcotest.to_alcotest prop_random_steps;
  ]
