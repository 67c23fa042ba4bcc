(* Sample statistics, and readers for what the server exports. *)

(* Latency samples of one op class.  A failed op is recorded as
   [infinity]: it misses every latency limit. *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 1024 0.; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let ys = Array.make (2 * s.n) 0. in
    Array.blit s.xs 0 ys 0 s.n;
    s.xs <- ys
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.xs 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, with the number of samples
   strictly beyond it (the tail guard). *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    (a.(rank - 1), n - rank)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [a / b], 0 when nothing was counted. *)
let ratio a b = if b = 0. then 0. else a /. b

(* ---- Prometheus text (`metrics prom`) ---------------------------------- *)

(* Sample lines keyed by their full series name, labels included, e.g.
   [gkbms_server_command_us_sum{cmd="run"}]. *)
let parse_prom text =
  let tbl = Hashtbl.create 256 in
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' then
           match String.rindex_opt l ' ' with
           | Some i -> (
             match
               float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
             with
             | Some v -> Hashtbl.replace tbl (String.sub l 0 i) v
             | None -> ())
           | None -> ());
  tbl

let prom tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:0.

(* Sum of every series of [name] whose labels satisfy [keep]. *)
let prom_sum tbl name ~keep =
  Hashtbl.fold
    (fun k v acc ->
      let base, labels =
        match String.index_opt k '{' with
        | Some i -> (String.sub k 0 i, String.sub k i (String.length k - i))
        | None -> (k, "")
      in
      if base = name && keep labels then acc +. v else acc)
    tbl 0.

let delta before after key = prom after key -. prom before key

(* ---- a small JSON reader (span dumps, flight logs) --------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c =
    ws ();
    if peek () <> c then raise (Bad_json (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad_json "unterminated string");
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        let c = if !pos + 1 < n then s.[!pos + 1] else '"' in
        (match c with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          Buffer.add_char b '?';
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        pos := !pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad_json "bad object")
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> raise (Bad_json "bad array")
        in
        items []
    | '"' -> Str (str ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise (Bad_json (Printf.sprintf "bad value at %d" start)))
  in
  value ()

let field k = function Obj fs -> List.assoc_opt k fs | _ -> None

let num k j = match field k j with Some (Num f) -> f | _ -> 0.
let str k j = match field k j with Some (Str s) -> s | _ -> ""
let arr k j = match field k j with Some (Arr l) -> l | _ -> []
