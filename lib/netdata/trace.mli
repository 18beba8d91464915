(** Persisting flow traces.

    The paper's datasets are packet traces on disk (NSL-KDD files, PeerRush
    captures); this module gives the synthetic traces the same property so
    experiments can be re-run against frozen inputs. The format is a plain
    line-oriented text file:

    {v
    # homunculus-trace v1
    flow <id> <benign|botnet> <app> <n_packets>
    <ts_seconds> <size_bytes>
    ...
    v} *)

val to_string : Flow.t array -> string

val of_string : string -> Flow.t array
(** @raise Invalid_argument on malformed input, including a NaN, infinite
    or negative packet timestamp (with a line number). *)

val save : path:string -> Flow.t array -> unit
val load : path:string -> Flow.t array
(** @raise Sys_error on I/O failure. *)
