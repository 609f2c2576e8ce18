"""The base of the package's frozen public records.

A subclass lists its fields as class annotations, in order, with any
default as a class attribute, and gets what ``@dataclass(frozen=True)``
gave it: an ``__init__`` of the same signature that calls ``__post_init__``
when the class has one, the same ``repr``, equality and hashing by class
and field tuple, ``__match_args__``, and an ``AttributeError`` on any
assignment or deletion (``__post_init__`` stores a field with
``object.__setattr__``).  Instances keep their fields in ``__dict__``, so
``pickle`` and ``copy`` work as for any plain object.  A subclass of a
record that declares no field keeps its base's fields and ``__init__``;
one that declares fields adds them after its base's, as a ``@dataclass``
subclass does.

``dataclasses`` is not used: its import pulls in ``inspect`` and building a
class takes about 1 ms, which every CLI call would pay.  ``__init__`` is one
small function compiled per class, so Python binds the arguments and words
its own ``TypeError`` messages.  It stores each field by
``object.__setattr__``: a write through ``self.__dict__`` would be faster
but makes CPython 3.11 keep the instance's values in a real dict, and every
later attribute read about 4x slower.
"""


def _values(record):
    return tuple([getattr(record, name) for name in record.__match_args__])


class _Record:
    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__annotations__
        if not own:
            return  # a plain subclass keeps its base's fields and __init__
        inherited = getattr(cls, "__match_args__", ())
        annotations = {name: cls.__init__.__annotations__[name] for name in inherited}
        annotations.update(own)
        names = tuple(annotations)
        defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        params = "".join(", %s=_defaults[%r]" % (name, name) if name in defaults
                         else ", " + name for name in names)
        body = "".join("\n    _setattr(self, %r, %s)" % (name, name) for name in names)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        scope = {"_defaults": defaults, "_setattr": object.__setattr__}
        exec("def __init__(self%s):%s" % (params, body), scope)
        init = scope["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        init.__annotations__ = {**annotations, "return": None}
        cls.__init__ = init
        cls.__match_args__ = names

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
