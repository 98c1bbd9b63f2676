"""The one helper of the package's records, each a ``typing.NamedTuple``."""

from types import MappingProxyType


def checked(cls):
    """Run the NamedTuple ``cls``'s ``_check`` on every record built by its constructor,
    ``_make``, ``_replace`` (so ``copy.replace``), a copy or unpickling, all through the
    wrapped ``__new__``; ``_check`` returns None or the record to keep in place of the
    one built.  A read-only mapping field pickles as a dict, which ``_check`` may copy."""
    new = cls.__new__

    def __new__(klass, *args, **kwargs):
        record = new(klass, *args, **kwargs)
        return record._check() or record

    cls.__new__ = __new__
    cls._make = classmethod(lambda klass, values: klass(*values))
    cls.__getnewargs__ = lambda self: tuple(dict(v) if type(v) is MappingProxyType else v for v in self)
    return cls
