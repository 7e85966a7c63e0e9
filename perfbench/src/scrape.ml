(* Scrape the server's Prometheus /metrics endpoint over HTTP/1.0 and
   parse the exposition into name -> value. Summary quantile lines are
   keyed as [name{quantile="q"}], exactly as printed. *)

type t = (string, float) Hashtbl.t

let http_get ~port ~path ~timeout =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let deadline = Unix.gettimeofday () +. timeout in
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then failwith "scrape: timed out"
        else
          match Unix.select [ fd ] [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> go ()
          | _ ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              go ()
            end
      in
      go ();
      Buffer.contents buf)

let parse text : t =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some i -> (
          let name = String.sub line 0 i in
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Hashtbl.replace tbl name v
          | None -> ()))
    (String.split_on_char '\n' text);
  tbl

(* The body after the blank line that ends the HTTP header. *)
let body raw =
  let n = String.length raw in
  let rec find i =
    if i + 4 > n then raw
    else if String.sub raw i 4 = "\r\n\r\n" then String.sub raw (i + 4) (n - i - 4)
    else find (i + 1)
  in
  find 0

let metrics ~port : t = parse (body (http_get ~port ~path:"/metrics" ~timeout:5.0))

let get (t : t) name = Option.value (Hashtbl.find_opt t name) ~default:0.0

(* Growth of [name] between two scrapes. *)
let delta ~before ~after name = get after name -. get before name
