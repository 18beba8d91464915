(** Minimal packet record for the flow-level traffic simulator. *)

type t = {
  ts : float;  (** arrival time in seconds since flow start *)
  size : int;  (** bytes on the wire *)
}

val make : ts:float -> size:int -> t
(** @raise Invalid_argument on a NaN, infinite or negative time, or a
    non-positive size. *)

val inter_arrival_times : t array -> float array
(** [n-1] gaps of an array sorted by [ts]; empty for fewer than 2 packets. *)

val total_bytes : t array -> int
val duration : t array -> float
(** Last minus first timestamp; [0.] for fewer than 2 packets. *)
