(** Dependency graphs over design objects, decisions and tools — the
    structures the graphical DAG browser displays in figs 2-2 .. 2-4,
    with the zooming facility §2.1 calls for. *)

open Kernel

val from_label : Symbol.t
val to_label : Symbol.t
val by_label : Symbol.t
val replaces_label : Symbol.t

val build : Repository.t -> Kbgraph.Digraph.t
(** The full dependency graph: [input --from--> decision],
    [decision --to--> output], [decision --by--> tool],
    [new_version --replaces--> old_version]. *)

val successors : Repository.t -> Prop.id -> (Symbol.t * Prop.id) list
(** The edges of {!build} leaving one node, computed from the KB around
    it without building the graph: a logged decision's [to] outputs and
    [by] tool, [from] edges to the logged decisions consuming the node
    ({!Decision.consumers}), and a design object's [replaces] edges.
    Costs the node's degree, not the history's length.  Unordered and
    possibly with duplicates where {!build} would merge them. *)

val in_graph : Repository.t -> Prop.id -> bool
(** Whether {!build} would have the node: it is a logged decision, has
    a successor, or is the target of a KB link whose source has it as a
    successor. *)

val zoom : Kbgraph.Digraph.t -> focus:Prop.id -> radius:int -> Kbgraph.Digraph.t
(** The neighborhood of a focus node up to the given distance (in either
    edge direction) — coarse or fine granularity of the display. *)

val consequences :
  Repository.t -> Prop.id -> Prop.id list * Prop.id list
(** [consequences repo dec] = (decisions, objects) transitively dependent
    on the decision: its outputs, every decision taking one of those as
    input, and so on.  [dec] itself heads the decision list. *)

val pp : Repository.t -> Format.formatter -> Prop.id -> unit
(** ASCII rendering of the dependency graph from a focus, walked
    through {!successors}: byte-identical to rendering {!build}'s graph
    with [Kbgraph.Digraph.pp_ascii_dag ~max_depth:8], at the cost of the
    rendered neighbourhood. *)

val to_dot : Repository.t -> string
(** DOT rendering with decisions boxed and tools dashed. *)
