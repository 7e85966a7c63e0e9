(** Live telemetry plane: a tiny HTTP/1.0 listener exposing a
    {!Registry} while the server runs.

    Endpoints:
    - [/metrics] — Prometheus text exposition ({!Prometheus}) of every
      registered counter, gauge and histogram, one consistent snapshot
      per scrape;
    - [/healthz] (aliases [/health], [/stats]) — the JSON document the
      [health] callback builds on each request (uptime, connections,
      inflight, shed level, ownership counts — whatever the host
      process wires in);
    - [/] — a plain-text index.

    Deliberately {e not} built on [C4_net]'s serving loops: they speak
    the binary KVS wire protocol and lives in [c4_net], which depends
    on this library — the scrape path must stay below it. One thread
    per scrape connection, response then close; scrapes are rare and
    cheap (a registry snapshot), so no pooling. *)

type t

(** Bind [host]:[port] ([port] 0 = ephemeral, see {!port}) and start
    accepting. [registry] should be thread-safe when the host process
    records from several threads (scrapes read through
    {!Registry.snapshot}). [health] is called per [/healthz] request
    from the scrape thread; keep it cheap and thread-safe. Raises
    [Unix.Unix_error] when the address cannot be bound. *)
val start :
  ?host:string ->
  port:int ->
  registry:Registry.t ->
  health:(unit -> Json.t) ->
  unit ->
  t

(** Like {!start}, but a bind failure — above all [EADDRINUSE], the
    routine "two servers on one box" collision — comes back as
    [Error] with a human-readable message instead of an exception, so
    a host process can report it and keep serving without telemetry. *)
val try_start :
  ?host:string ->
  port:int ->
  registry:Registry.t ->
  health:(unit -> Json.t) ->
  unit ->
  (t, string) result

(** The port actually bound. *)
val port : t -> int

(** Stop accepting, join in-flight scrapes, close the socket.
    Idempotent. *)
val stop : t -> unit
