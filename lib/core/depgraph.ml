open Kernel
module G = Kbgraph.Digraph
module Repo = Repository
module Kb = Cml.Kb

let from_label = Symbol.intern "from"
let to_label = Symbol.intern "to"
let by_label = Symbol.intern "by"
let replaces_label = Symbol.intern "replaces"

let build repo =
  let g = G.create () in
  let kb = Repo.kb repo in
  List.iter
    (fun dec ->
      G.add_node g dec;
      List.iter
        (fun (_, input) -> G.add_edge g input from_label dec)
        (Decision.inputs_of repo dec);
      List.iter
        (fun (_, output) -> G.add_edge g dec to_label output)
        (Decision.outputs_of repo dec);
      match Decision.tool_of repo dec with
      | Some tool -> G.add_edge g dec by_label (Symbol.intern tool)
      | None -> ())
    (Repo.decision_log repo);
  (* version edges *)
  List.iter
    (fun obj ->
      List.iter
        (fun old -> G.add_edge g obj replaces_label old)
        (Kb.attribute_values kb obj Metamodel.replaces_cat))
    (Repo.all_design_objects repo);
  g

let zoom g ~focus ~radius =
  let keep = ref (Symbol.Set.singleton focus) in
  let frontier = ref [ focus ] in
  for _ = 1 to radius do
    let next = ref [] in
    List.iter
      (fun n ->
        List.iter
          (fun (_, m) ->
            if not (Symbol.Set.mem m !keep) then begin
              keep := Symbol.Set.add m !keep;
              next := m :: !next
            end)
          (G.succ g n @ G.pred g n))
      !frontier;
    frontier := !next
  done;
  G.subgraph g (fun n -> Symbol.Set.mem n !keep)

(* Local navigation -------------------------------------------------------

   The edges of [build] leaving one node, read off the KB around it:
   a logged decision's outputs and tool, the logged decisions consuming
   the node, and a design object's older versions.  Each costs the
   node's in/out degree, so views unfolded from a focus scale with what
   they render, not with the length of the history. *)

let replaces_sym = Symbol.intern Metamodel.replaces_cat
let design_object_sym = Symbol.intern Metamodel.design_object

(* membership in [Repo.all_design_objects]: an instance of a class that
   instantiates the DesignObject metaclass *)
let is_design_object kb n =
  List.exists
    (fun c -> List.exists (Symbol.equal design_object_sym) (Kb.classes_of kb c))
    (Kb.all_classes_of kb n)

let tool_node repo dec = Option.map Symbol.intern (Decision.tool_of repo dec)

let successors repo n =
  let kb = Repo.kb repo in
  let decision_edges =
    if Repo.is_logged repo n then
      List.map (fun (_, output) -> (to_label, output)) (Decision.outputs_of repo n)
      @
      match tool_node repo n with
      | Some tool -> [ (by_label, tool) ]
      | None -> []
    else []
  in
  let version_edges =
    match Kb.attribute_values kb n Metamodel.replaces_cat with
    | olds when olds <> [] && is_design_object kb n ->
      List.map (fun old -> (replaces_label, old)) olds
    | _ -> []
  in
  decision_edges
  @ List.map (fun d -> (from_label, d)) (Decision.consumers repo n)
  @ version_edges

(* [n] is the target of a KB link whose source has it as a successor:
   a decision's output or tool, or a design object's older version
   ([from] edges end at logged decisions, which are nodes anyway) *)
let is_edge_target repo n =
  let kb = Repo.kb repo in
  List.exists
    (fun (p : Prop.t) ->
      (Repo.is_logged repo p.source
      && (Decision.classify_link repo p = `Output
         || (Symbol.equal p.label by_label
            && tool_node repo p.source = Some n)))
      || (Symbol.equal p.label replaces_sym
         && Kb.is_attribute_prop p
         && is_design_object kb p.source))
    (Store.Base.by_dest (Kb.base kb) n)

let in_graph repo n =
  Repo.is_logged repo n || successors repo n <> [] || is_edge_target repo n

(* The consequence closure follows the same local edges, so its cost
   scales with the closure, not with the length of the history. *)
let consequences repo dec =
  let decisions = ref [ dec ] in
  let objects = ref [] in
  let seen = ref (Symbol.Set.singleton dec) in
  let rec follow_decision d =
    List.iter
      (fun (_, output) ->
        if not (Symbol.Set.mem output !seen) then begin
          seen := Symbol.Set.add output !seen;
          objects := output :: !objects;
          follow_object output
        end)
      (Decision.outputs_of repo d)
  and follow_object obj =
    List.iter
      (fun consumer ->
        if not (Symbol.Set.mem consumer !seen) then begin
          seen := Symbol.Set.add consumer !seen;
          decisions := consumer :: !decisions;
          follow_decision consumer
        end)
      (Decision.consumers repo obj)
  in
  follow_decision dec;
  (List.rev !decisions, List.rev !objects)

let pp repo ppf focus =
  if in_graph repo focus then
    G.pp_ascii_unfold ~max_depth:8 ~succ:(successors repo) ppf focus
  else Format.fprintf ppf "%s (not in the dependency graph)@." (Symbol.name focus)

let to_dot repo =
  let g = build repo in
  let decisions =
    List.fold_left
      (fun acc d -> Symbol.Set.add d acc)
      Symbol.Set.empty (Repo.decision_log repo)
  in
  let node_attrs n =
    if Symbol.Set.mem n decisions then [ ("shape", "box") ]
    else if Repo.find_tool repo (Symbol.name n) <> None then
      [ ("style", "dashed") ]
    else []
  in
  G.to_dot ~name:"dependencies" ~node_attrs g
