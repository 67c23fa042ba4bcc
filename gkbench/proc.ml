(* Child server processes: spawn, wait for the socket, stop, reap.

   Every wait on a child is bounded and falls back to SIGKILL, and every
   child ever spawned is reaped at exit (normal, error or watchdog), so
   no run inherits a stray server. *)

type t = { pid : int; name : string; log : string }

let live : (int, t) Hashtbl.t = Hashtbl.create 8
let live_m = Mutex.create ()

let with_live f =
  Mutex.lock live_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_m) f

let server_exe () =
  Filename.concat (Sys.getcwd ()) "_build/default/bin/gkbms_cli.exe"

let spawn ~name ~log args =
  let exe = server_exe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close out)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) devnull out out)
  in
  let p = { pid; name; log } in
  with_live (fun () -> Hashtbl.replace live pid p);
  p

let exited p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let forget p = with_live (fun () -> Hashtbl.remove live p.pid)

let log_tail p =
  try
    let s = In_channel.with_open_bin p.log In_channel.input_all in
    let n = String.length s in
    if n > 600 then String.sub s (n - 600) 600 else s
  with _ -> ""

(* Poll for [cond] for at most [timeout] seconds. *)
let until ?(every = 0.005) ~timeout cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Unix.sleepf every;
      go ())
  in
  go ()

let signal p s = try Unix.kill p.pid s with Unix.Unix_error _ -> ()

(* Reap [p]: SIGTERM, wait up to 3 s for it to exit, then SIGKILL and
   wait for that.  (A follower sometimes sits out a SIGTERM.) *)
let stop p =
  signal p Sys.sigterm;
  if not (until ~timeout:3. (fun () -> exited p)) then begin
    signal p Sys.sigkill;
    ignore (until ~timeout:10. (fun () -> exited p))
  end;
  forget p

let kill p =
  signal p Sys.sigkill;
  ignore (until ~timeout:10. (fun () -> exited p));
  forget p

let kill_all () =
  let ps = with_live (fun () -> Hashtbl.fold (fun _ p acc -> p :: acc) live []) in
  List.iter kill ps

(* Connect once the server answers a ping on [socket], within 60 s.
   The fine poll keeps set-up times from being quantized by it. *)
let connect p socket =
  let client = ref None in
  let ok =
    until ~every:0.0002 ~timeout:60. (fun () ->
        if exited p then
          failwith
            (Printf.sprintf "%s exited during start-up: %s" p.name (log_tail p));
        Sys.file_exists socket
        &&
        match Server.Client.connect_unix ~handshake:true socket with
        | Ok c ->
          client := Some c;
          true
        | Error _ -> false
        | exception Unix.Unix_error _ -> false)
  in
  match !client with
  | Some c when ok -> c
  | _ -> failwith (Printf.sprintf "%s did not come up on %s" p.name socket)

(* /proc accounting: peak resident set and CPU time of a live child. *)
let status_kb p field =
  try
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" p.pid)
      (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.starts_with ~prefix:(field ^ ":") l ->
            Scanf.sscanf
              (String.sub l (String.length field + 1)
                 (String.length l - String.length field - 1))
              " %d" Fun.id
          | Some _ -> go ()
        in
        go ())
  with _ -> 0

let rss_peak_mb p = float_of_int (status_kb p "VmHWM") /. 1024.

let clk_tck = 100.

(* utime + stime in milliseconds ([/proc/PID/stat] fields 14 and 15). *)
let cpu_ms p =
  try
    let s =
      In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" p.pid)
        In_channel.input_all
    in
    let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    let fields = String.split_on_char ' ' after in
    (* [after] starts at field 3 (state) *)
    let utime = float_of_string (List.nth fields 11) in
    let stime = float_of_string (List.nth fields 12) in
    (utime +. stime) /. clk_tck *. 1e3
  with _ -> 0.

(* Host-wide (total, steal) CPU ticks from the first line of
   [/proc/stat]: steal is time this box's virtual CPUs wanted to run
   and the hypervisor ran something else. *)
let cpu_ticks () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some l ->
          let xs =
            String.split_on_char ' ' l
            |> List.filter_map (fun w -> if w = "" || w = "cpu" then None else float_of_string_opt w)
          in
          (List.fold_left ( +. ) 0. xs, (match List.nth_opt xs 7 with Some s -> s | None -> 0.))
        | None -> (0., 0.))
  with _ -> (0., 0.)

(* Scratch space inside the checkout, removed after the run. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let tmp_root = ".gkbench_tmp"
let scratch = Filename.concat tmp_root (string_of_int (Unix.getpid ()))

let scratch_dir () =
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf scratch;
  Unix.mkdir scratch 0o755;
  scratch

(* Stop every child and remove the scratch directory. *)
let cleanup () =
  kill_all ();
  (try rm_rf scratch with _ -> ());
  try Unix.rmdir tmp_root with _ -> ()
