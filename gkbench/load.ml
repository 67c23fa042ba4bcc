(* The closed-loop load generator: one thread per connection, each sending
   its next request only after the previous response, until its stream
   runs out.  Every op is timed around [Server.Client.request] and
   tallied by class; in a traced run the timed phase alternates
   untraced and traced windows on the same server, and connection 0
   samples the server's span trees during traced windows. *)

type cls = Decide | Read

let cls_name = function Decide -> "decide" | Read -> "read"

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;  (** transport or protocol failure *)
  mutable refused : int;  (** the server declined the request *)
  mutable errors : int;  (** error response, or a response the check rejects *)
  lat : Stats.samples;  (** ms; failures are [infinity] *)
}

let tally () =
  { attempted = 0; ok = 0; failed = 0; refused = 0; errors = 0;
    lat = Stats.samples () }

let bad t = t.failed + t.refused + t.errors

(* Add [src]'s counts and samples to [dst]. *)
let merge_into dst src =
  dst.attempted <- dst.attempted + src.attempted;
  dst.ok <- dst.ok + src.ok;
  dst.failed <- dst.failed + src.failed;
  dst.refused <- dst.refused + src.refused;
  dst.errors <- dst.errors + src.errors;
  for k = 0 to src.lat.Stats.n - 1 do
    Stats.add dst.lat src.lat.Stats.xs.(k)
  done

(* One op: the line, its class, and what its response must satisfy. *)
type op = { cls : cls; line : string; check : string -> bool }

let starts ~prefix s = String.starts_with ~prefix s

type outcome = Ok_resp of string | Failed of string | Refused of string | Err of string

let classify = function
  | Ok payload -> Ok_resp payload
  | Error e when starts ~prefix:"error: read-only" e -> Refused e
  | Error e when starts ~prefix:"error:" e -> Err e
  | Error e -> Failed e

(* Record one timed op; whether it passed. *)
let record tally op outcome ms =
  tally.attempted <- tally.attempted + 1;
  let fail () = Stats.add tally.lat infinity in
  match outcome with
  | Ok_resp payload when (not (starts ~prefix:"error:" payload)) && op.check payload ->
    tally.ok <- tally.ok + 1;
    Stats.add tally.lat ms;
    true
  | Ok_resp _ | Err _ ->
    tally.errors <- tally.errors + 1;
    fail ();
    false
  | Refused _ ->
    tally.refused <- tally.refused + 1;
    fail ();
    false
  | Failed _ ->
    tally.failed <- tally.failed + 1;
    fail ();
    false

let first_error : string option Atomic.t = Atomic.make None

let note_error op outcome =
  match outcome with
  | Ok_resp p | Failed p | Refused p | Err p ->
    ignore
      (Atomic.compare_and_set first_error None
         (Some (Printf.sprintf "%s -> %s" op.line
                  (if String.length p > 200 then String.sub p 0 200 else p))))

(* A request that must succeed: a control line, not a measured op. *)
let control client line =
  match Server.Client.request client line with
  | Ok s -> s
  | Error e -> failwith (Printf.sprintf "%s: %s" line e)

let run_op client tally op =
  let t0 = Unix.gettimeofday () in
  let outcome = classify (Server.Client.request client op.line) in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  if not (record tally op outcome ms) then note_error op outcome

(* ---- span sampling (traced windows) ------------------------------------ *)

(* Self time per span name, summed over sampled root requests of one
   op class. *)
type spans = {
  mutable roots : int;
  mutable root_ms : float;
  self_ms : (string, float) Hashtbl.t;
}

let spans () = { roots = 0; root_ms = 0.; self_ms = Hashtbl.create 16 }

let rec add_self acc j =
  let children = Stats.arr "children" j in
  let dur = Stats.num "duration_us" j in
  let child_sum =
    List.fold_left (fun a c -> a +. Stats.num "duration_us" c) 0. children
  in
  let name = Stats.str "name" j in
  let prev = Option.value (Hashtbl.find_opt acc.self_ms name) ~default:0. in
  Hashtbl.replace acc.self_ms name (prev +. ((dur -. child_sum) /. 1e3));
  List.iter (add_self acc) children

(* Fold one [trace dump recent] answer into the per-class accumulators;
   roots of other commands (the dumps themselves, replication pulls)
   are skipped. *)
let absorb_dump ~class_of_cmd (by_cls : cls -> spans) json =
  match Stats.parse_json json with
  | exception Stats.Bad_json _ -> ()
  | j ->
    List.iter
      (fun root ->
        if Stats.str "name" root = "server.request" then
          match Stats.field "attrs" root with
          | Some attrs -> (
            match class_of_cmd (Stats.str "cmd" attrs) with
            | Some c ->
              let acc = by_cls c in
              acc.roots <- acc.roots + 1;
              acc.root_ms <- acc.root_ms +. (Stats.num "duration_us" root /. 1e3);
              add_self acc root
            | None -> ())
          | None -> ())
      (Stats.arr "spans" j)

(* ---- the timed phase ---------------------------------------------------- *)

type phase = {
  untraced : cls -> tally;
  traced : cls -> tally;
  untraced_s : float;  (** wall time spent in untraced windows *)
  traced_s : float;
  span : cls -> spans;
}

let per_cls () =
  let d = tally () and r = tally () in
  fun c -> match c with Decide -> d | Read -> r

let window_s = 0.25
let dump_every = 64

(* A fixed number of ops shared by several connections: each draw takes
   one from the budget, and a connection's stream ends when it is
   spent.  Every stream stays a prefix of its seeded sequence. *)
let budget n =
  let left = Atomic.make n in
  fun next () -> if Atomic.fetch_and_add left (-1) > 0 then Some (next ()) else None

(* Run every connection's stream until it ends ([None]).  With [trace],
   windows of [window_s] alternate untraced/traced (untraced first);
   connection 0 switches the server's tracing at each boundary and,
   while traced, dumps and clears the span ring every [dump_every] of
   its ops.  Each op is tallied in the window it started in. *)
let run ~trace ~class_of_cmd conns =
  let untraced = per_cls () and traced = per_cls () in
  let sp_d = spans () and sp_r = spans () in
  let span = function Decide -> sp_d | Read -> sp_r in
  let m = Mutex.create () in
  let start = Unix.gettimeofday () in
  let window_of t = int_of_float ((t -. start) /. window_s) in
  let traced_at t = trace && window_of t mod 2 = 1 in
  let worker i (client, next) =
    let local_u = per_cls () and local_t = per_cls () in
    let server_tracing = ref false in
    let since_dump = ref 0 in
    let control = control client in
    let rec loop () =
      let tr = traced_at (Unix.gettimeofday ()) in
      if i = 0 && trace && tr <> !server_tracing then begin
        if not tr then
          absorb_dump ~class_of_cmd span (control "trace dump recent");
        ignore (control (if tr then "trace on" else "trace off"));
        ignore (control "trace clear");
        server_tracing := tr;
        since_dump := 0
      end;
      match next () with
      | None -> ()
      | Some op ->
        let tl = (if tr then local_t else local_u) op.cls in
        run_op client tl op;
        if i = 0 && !server_tracing then begin
          incr since_dump;
          if !since_dump >= dump_every then begin
            absorb_dump ~class_of_cmd span (control "trace dump recent");
            ignore (control "trace clear");
            since_dump := 0
          end
        end;
        loop ()
    in
    loop ();
    if i = 0 && !server_tracing then begin
      absorb_dump ~class_of_cmd span (control "trace dump recent");
      ignore (control "trace off")
    end;
    Mutex.lock m;
    List.iter
      (fun c ->
        merge_into (untraced c) (local_u c);
        merge_into (traced c) (local_t c))
      [ Decide; Read ];
    Mutex.unlock m
  in
  let failure = Atomic.make None in
  let threads =
    List.mapi
      (fun i c ->
        Thread.create
          (fun () ->
            try worker i c
            with e -> Atomic.set failure (Some (Printexc.to_string e)))
          ())
      conns
  in
  List.iter Thread.join threads;
  (match Atomic.get failure with
  | Some e -> failwith ("load generator: " ^ e)
  | None -> ());
  let elapsed = Unix.gettimeofday () -. start in
  let windows = int_of_float (Float.ceil (elapsed /. window_s)) in
  let traced_s =
    if not trace then 0.
    else
      (* odd windows are traced; the last may be partial *)
      let full = ref 0. in
      for w = 0 to windows - 1 do
        if w mod 2 = 1 then
          full :=
            !full
            +. Float.min window_s (elapsed -. (float_of_int w *. window_s))
      done;
      !full
  in
  {
    untraced;
    traced;
    untraced_s = elapsed -. traced_s;
    traced_s;
    span;
  }
