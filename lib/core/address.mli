(** Opaque FLIPC endpoint addresses.

    Per the paper, destinations are "opaque and determined by the system":
    a receiver obtains the address of an endpoint it allocated and hands it
    to senders out of band (FLIPC itself has no name service). The encoding
    below fits one 32-bit word so an address can live in a message header
    or an endpoint field; the all-zero word is the null address, so freshly
    zeroed memory never aliases a real endpoint. *)

type t

val null : t
val is_null : t -> bool

(** [make ~node ~endpoint] requires [0 <= node < 16383] and
    [0 <= endpoint < 65536]. *)
val make : node:int -> endpoint:int -> t

val node : t -> int
val endpoint : t -> int

(** {1 Word encoding (for storage in the communication buffer)} *)

val to_word : t -> int

(** [valid_word w] holds when [w] decodes to an address: a word whose top
    two bits are clear. *)
val valid_word : int -> bool

(** [of_word w] raises [Invalid_argument] unless [valid_word w]. *)
val of_word : int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
