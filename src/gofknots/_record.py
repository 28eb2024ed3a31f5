"""Immutable value records without code generation.

A subclass lists its fields as class annotations, in order, with optional
defaults as class attributes; a subclass that annotates nothing keeps its
parent's fields.  Construction, equality, hashing and repr follow the
frozen dataclass rules, but are plain methods of this base class, so
defining a record costs one class statement at import time.

An instance's ``__dict__`` holds its fields and nothing else, in field
order: ``__init__`` fills it and ``__setattr__`` refuses every other write.
So the dict's values are the field tuple, and two records of one class are
equal exactly when their dicts are.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif hasattr(cls, field):
                values.append(getattr(cls, field))
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        for key in kwargs:
            problem = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {problem} argument {key!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        args = ", ".join(f"{field}={value!r}" for field, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
