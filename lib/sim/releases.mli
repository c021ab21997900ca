(** Typed validation of release-date vectors at the engine boundary.

    Every public entry that accepts [?releases] ({!Engine}, {!Lanes})
    validates through this module, so hostile input is
    rejected with a structured error — mirroring
    {!Suu_core.Instance.error} — instead of an anonymous
    [Invalid_argument] or silent misbehaviour. *)

type error =
  | Length_mismatch of { expected : int; got : int }
      (** the vector must have one entry per job *)
  | Negative_release of { job : int; value : int }

exception Invalid of error

val error_to_string : error -> string

val validate : n:int -> int array -> (unit, error) result
(** Check a release vector against a job count. *)

val check : n:int -> int array option -> unit
(** [validate] on [Some r], raising {!Invalid}; no-op on [None]. *)
