(* Seeded request streams.

   Every line the benchmark sends is a pure function of the workload
   seed and the resolved meeting scenario (the state `gkbms serve`
   starts from), so the same seed replays byte-identical streams and
   the in-process reference evaluation can re-run exactly what the
   server saw.  Version names are predicted rather than read back from
   responses: each connection owns its documents, the Editor names the
   successor of [Base<k>] as [Base<k+1>], and the client checks every
   response against the prediction. *)

open Kernel
module Repo = Gkbms.Repository

let ( let* ) = Result.bind

(* The scenario state `gkbms serve` builds at its default `--until
   resolved`: setup, then the five steps of the paper's storyline. *)
let scenario () =
  let module S = Gkbms.Scenario in
  let* st = S.setup () in
  let* _ = S.map_move_down st in
  let* _ = S.normalize_invitations st in
  let* _ = S.substitute_key st in
  let* _ = S.introduce_minutes st in
  let* _ = S.resolve_conflict st in
  Ok st

let split_version name =
  let n = String.length name in
  let rec first_digit i =
    if i > 0 && name.[i - 1] >= '0' && name.[i - 1] <= '9' then
      first_digit (i - 1)
    else i
  in
  let cut = first_digit n in
  if cut = n then (name, 1)
  else (String.sub name 0 cut, int_of_string (String.sub name cut (n - cut)))

(* Tips of the scenario's version chains that the manual Editor can
   revise, sorted by name.  Derived parts ([X!src], [decN!rationale])
   are left out: their names are not operands of the query verbs. *)
let documents repo =
  Repo.all_design_objects repo
  |> List.filter (fun obj -> not (String.contains (Symbol.name obj) '!'))
  |> List.filter_map (fun obj ->
         match List.rev (Gkbms.Version.version_chain repo obj) with
         | tip :: _ when Symbol.equal tip obj -> Some tip
         | _ -> None)
  |> List.filter (fun obj ->
         List.exists
           (fun (e : Gkbms.Decision.menu_entry) ->
             e.Gkbms.Decision.decision_class = "DecManualEdit")
           (Gkbms.Decision.applicable repo obj))
  |> List.map Symbol.name
  |> List.sort_uniq String.compare

(* A document's version chain as the benchmark predicts it. *)
type chain = { base : string; mutable last : int }

let chain_of name =
  let base, last = split_version name in
  { base; last }

let tip c = if c.last = 1 then c.base else Printf.sprintf "%s%d" c.base c.last
let version c k = if k = 1 then c.base else Printf.sprintf "%s%d" c.base k

let rng ~seed ~stream = Random.State.make [| 0x6b62; seed; stream |]

(* Fisher-Yates, in place. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One revision: the line to send and the version it must create. *)
type edit = { line : string; creates : string }

(* An endless stream of revisions over [chains]: cycles that each
   revise every document once, in a seeded order, with a seeded text.
   Every seed thus grows chains of the same lengths — the seed changes
   the order and the texts, not the shape of the history.  Advancing a
   chain happens here, so a caller that sends every line in order keeps
   the predicted tips equal to the server's. *)
let edits ~seed ~stream chains =
  let st = rng ~seed ~stream in
  let chains = Array.of_list chains in
  let n = Array.length chains in
  let order = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      shuffle st order;
      pos := 0
    end;
    let c = chains.(order.(!pos)) in
    incr pos;
    let line =
      Printf.sprintf "run DecManualEdit Editor object=%s text=r%08x" (tip c)
        (Random.State.bits st land 0xffffffff)
    in
    c.last <- c.last + 1;
    { line; creates = tip c }

(* Deal documents round-robin to [n] connections. *)
let deal n docs =
  List.init n (fun i ->
      List.filteri (fun j _ -> j mod n = i) docs |> List.map chain_of)

(* Browse/query verbs, with the share of draws each gets.  The operand
   is a design object; [derive] and [ask] wrap it in a query over the
   deductive view and the assertion language respectively.  The cheap
   verbs (ask, derive, why) take 5/12 of the draws and history 4/12, so
   the median read falls inside history's latencies rather than on the
   edge between two verbs', where a small shift in the mix would move
   it. *)
let read_verbs =
  [| ("history", 4); ("why", 2); ("focus", 2); ("deps", 1); ("derive", 2);
     ("ask", 1) |]

let read_line verb obj =
  match verb with
  | "derive" -> Printf.sprintf "derive in(%s, ?C)" obj
  | "ask" -> Printf.sprintf "ask in(%s, DBPL_Object)" obj
  | v -> v ^ " " ^ obj

let verb_of_line line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let total_weight = Array.fold_left (fun a (_, w) -> a + w) 0 read_verbs

(* [objects] in order of popularity: a fixed shuffle, the same for every
   seed. *)
let by_popularity objects =
  let objs = Array.of_list objects in
  shuffle (rng ~seed:0 ~stream:0x5eed) objs;
  objs

(* A fixed multiset of [n] read lines in seeded order.  Each line's
   count is its share of [n] by its verb's weight and its object's
   Zipf(1) popularity over [by_popularity], rounded by largest
   remainders so the counts add up to [n].  The seed shuffles the order
   and nothing else: every seed sends the same lines the same number of
   times, so on a server whose data does not change each distinct line
   misses the response cache exactly once, whatever the seed. *)
let read_deck ~seed ~stream objects n =
  let objs = by_popularity objects in
  let h = ref 0. in
  Array.iteri (fun i _ -> h := !h +. (1. /. float_of_int (i + 1))) objs;
  let lines =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i obj ->
              Array.map
                (fun (verb, w) ->
                  let share =
                    1. /. float_of_int (i + 1) /. !h
                    *. float_of_int w /. float_of_int total_weight
                  in
                  (read_line verb obj, share *. float_of_int n))
                read_verbs)
            objs))
  in
  let counts = Array.map (fun (_, q) -> int_of_float q) lines in
  let short = n - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init (Array.length lines) Fun.id in
  let rem i = snd lines.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun a b -> compare (rem b) (rem a)) by_remainder;
  for k = 0 to short - 1 do
    let i = by_remainder.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  let deck =
    Array.concat (Array.to_list (Array.mapi (fun i (l, _) -> Array.make counts.(i) l) lines))
  in
  shuffle (rng ~seed ~stream) deck;
  deck

(* Every version a set of chains holds, oldest first per chain. *)
let versions chains =
  List.concat_map (fun c -> List.init c.last (fun k -> version c (k + 1))) chains
