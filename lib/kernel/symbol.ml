type t = int

(* Interning must be domain-safe: the par pool evaluates Datalog rule
   bodies and consistency checks on several domains, and every one of
   them interns and resolves symbols.  The hot path — looking up an
   already-interned string — is lock-free: an open-addressed table of
   symbol ids (-1 for an empty slot) whose strings live in [names],
   published as a whole through [table] so it can be resized.  Inserts
   take [write_m], re-probe, and only then allocate a fresh id.  Slots
   and names are only ever written under the mutex.

   The slots are plain ints, so a symbol costs its string, one names
   entry and about two table words — no per-slot or per-symbol boxes,
   which matters because every proposition id is a symbol.  A lock-free
   probe racing an insert may see a slot still empty, or a new id before
   its string (or before the grown names array that holds it): either
   way the comparison fails, the probe misses, and the locked slow path,
   which sees every completed insert, decides.  A race thus costs a
   lock, never a wrong id.  The one string a stale names entry could
   match, [""], always takes the locked path.

   Publication order matters for [name]: the string is stored into the
   names array (and the grown array is published through [names])
   before the id is handed out, so any domain that can observe an id
   can also resolve it. *)

type table = { mask : int; slots : int array }

let mk_table cap = { mask = cap - 1; slots = Array.make cap (-1) }
let table = Atomic.make (mk_table 4096)
let names : string array Atomic.t = Atomic.make (Array.make 4096 "")
let next = Atomic.make 0
let write_m = Mutex.create ()

(* linear probing; [None] means [s] was not (visibly) in [tbl] *)
let probe tbl s =
  let names = Atomic.get names in
  let rec go j idx =
    let i = tbl.slots.(idx) in
    if i < 0 then None
    else if i < Array.length names && String.equal names.(i) s then Some i
    else if j = tbl.mask then None
    else go (j + 1) ((idx + 1) land tbl.mask)
  in
  go 0 (Hashtbl.hash s land tbl.mask)

(* writers only (under [write_m]) *)
let insert tbl s i =
  let rec go idx =
    if tbl.slots.(idx) < 0 then tbl.slots.(idx) <- i
    else go ((idx + 1) land tbl.mask)
  in
  go (Hashtbl.hash s land tbl.mask)

(* build the doubled table offline, publish it in one atomic store *)
let resize () =
  let old = Atomic.get table and names = Atomic.get names in
  let fresh = mk_table (2 * (old.mask + 1)) in
  Array.iter (fun i -> if i >= 0 then insert fresh names.(i) i) old.slots;
  Atomic.set table fresh

let intern_slow s =
  Mutex.lock write_m;
  let i =
    match probe (Atomic.get table) s with
    | Some i -> i (* another domain interned [s] since our fast path *)
    | None ->
      let i = Atomic.get next in
      let arr = Atomic.get names in
      (if i >= Array.length arr then begin
         let bigger = Array.make (2 * Array.length arr) "" in
         Array.blit arr 0 bigger 0 (Array.length arr);
         bigger.(i) <- s;
         Atomic.set names bigger
       end
       else arr.(i) <- s);
      let tbl = Atomic.get table in
      (* keep occupancy under half so probes stay short and always
         terminate on an empty slot *)
      let tbl =
        if 2 * (i + 1) > tbl.mask + 1 then begin
          resize ();
          Atomic.get table
        end
        else tbl
      in
      insert tbl s i;
      Atomic.set next (i + 1);
      i
  in
  Mutex.unlock write_m;
  i

let intern s =
  if s = "" then intern_slow s
  else
    match probe (Atomic.get table) s with
    | Some i -> i
    | None -> intern_slow s

let name i = (Atomic.get names).(i)
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (i : t) = i
let to_int i = i
let of_int i = i
let count () = Atomic.get next
let pp ppf i = Format.pp_print_string ppf (name i)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
