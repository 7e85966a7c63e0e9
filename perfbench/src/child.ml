(* The server under test as a child process ([c4_sim serve]), started
   through [C4_resilience.Proc]. Every child is registered the moment
   it exists and SIGKILLed and reaped on every exit path ({!kill_all}
   runs at exit and from the watchdog): a hung server ignores SIGTERM,
   so nothing gentler is tried. *)

module Proc = C4_resilience.Proc

type t = { proc : Proc.t; port : int; telemetry_port : int }

let live : Proc.t list ref = ref []
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

let kill_proc p =
  Proc.kill p;
  ignore (Proc.wait ~timeout:10.0 p);
  with_live (fun () -> live := List.filter (fun q -> q != p) !live)

let kill_all () = List.iter kill_proc (with_live (fun () -> !live))

let () = at_exit kill_all

(* Parse a "... 127.0.0.1:<port>..." line with the given prefix. *)
let port_after ~prefix line =
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    let rest = String.sub line n (String.length line - n) in
    let digits = ref 0 in
    while !digits < String.length rest && rest.[!digits] >= '0' && rest.[!digits] <= '9' do
      incr digits
    done;
    int_of_string_opt (String.sub rest 0 !digits)
  else None

(* Start [server serve] on ephemeral ports and wait (up to [timeout] s)
   for its telemetry and listening lines. *)
let spawn ~server ~(spec : Spec.t) ~timeout =
  let args =
    [ "serve"; "-p"; "0"; "--telemetry-port"; "0";
      "--workers"; string_of_int spec.Spec.n_workers;
      "--partitions"; string_of_int spec.Spec.n_partitions ]
  in
  let proc = with_live (fun () ->
      let p = Proc.spawn ~prog:server ~args in
      live := p :: !live;
      p)
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec await tport =
    let left = deadline -. Unix.gettimeofday () in
    match if left > 0.0 then Proc.await_line ~timeout:left proc else None with
    | None ->
      kill_proc proc;
      failwith "server child never printed its listening line"
    | Some line -> (
      match port_after ~prefix:"telemetry on http://127.0.0.1:" line with
      | Some p -> await (Some p)
      | None -> (
        match (port_after ~prefix:"c4 server listening on 127.0.0.1:" line, tport) with
        | Some port, Some telemetry_port -> { proc; port; telemetry_port }
        | Some _, None ->
          kill_proc proc;
          failwith "server child started without telemetry"
        | None, _ -> await tport))
  in
  await None

let kill t = kill_proc t.proc

(* Peak resident set ([VmHWM]) in MiB; nan if unreadable. *)
let peak_rss_mib t =
  match open_in (Printf.sprintf "/proc/%d/status" (Proc.pid t.proc)) with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go
